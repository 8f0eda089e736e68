package experiments

import (
	"testing"
	"time"

	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
	"rrtcp/internal/tcp"
	"rrtcp/internal/telemetry"
	"rrtcp/internal/workload"
)

// ackHighWater is the reference the constant-space reads replace: the
// bytes acknowledged over [from, to], scanned from the full event
// stream as the ACK high-water in the window minus the high-water
// strictly before it.
func ackHighWater(evs []telemetry.Event, from, to sim.Time) int64 {
	var lo, hi int64
	for _, ev := range evs {
		switch {
		case ev.Kind != telemetry.KAck:
		case ev.At < from:
			lo = max(lo, ev.Seq)
		case ev.At <= to:
			hi = max(hi, ev.Seq)
		}
	}
	return max(hi-lo, 0)
}

// TestRunAckedMatchesAckHighWater checks, for every variant under
// random loss, that snd.una read before and at a fixed window equals
// the ACK high-water over it: every strategy advances snd.una to each
// new cumulative ACK.
func TestRunAckedMatchesAckHighWater(t *testing.T) {
	for _, kind := range workload.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			sched := sim.NewScheduler(3)
			dcfg := netem.PaperDropTailConfig(1)
			dcfg.Loss = netem.NewUniformLoss(0.03, sched.Rand(), nil)
			d, err := netem.NewDumbbell(sched, dcfg)
			if err != nil {
				t.Fatal(err)
			}
			ring := telemetry.NewRing(0)
			flow, err := workload.Install(sched, d, 0, workload.FlowSpec{
				Kind: kind, Bytes: tcp.Infinite, Window: 18, Telemetry: telemetry.NewBus(ring),
			})
			if err != nil {
				t.Fatal(err)
			}
			from, to := 3*time.Second, 20*time.Second
			before, by := runAcked(sched, flow.Sender, from, to)
			if got, want := by-before, ackHighWater(ring.Events(), from, to); got != want || want == 0 {
				t.Fatalf("acked over window = %d, ACK high-water says %d", got, want)
			}
		})
	}
}

// TestRecoveryGoodputMatchesEventStream recomputes Figure 5's recovery
// goodput from the full event stream — first recovery-enter through
// done — and requires the constant-space sink to agree exactly.
func TestRecoveryGoodputMatchesEventStream(t *testing.T) {
	cfg := Figure5Config{Drops: 4}
	cfg.fillDefaults()
	for _, kind := range workload.Kinds() {
		ring := telemetry.NewRing(0)
		row, err := figure5Run(cfg, kind, telemetry.NewBus(ring))
		if err != nil {
			t.Fatal(err)
		}
		evs := ring.Events()
		enter, done := ring.EventsOf(telemetry.KRecoveryEnter), ring.EventsOf(telemetry.KFlowDone)
		if len(enter) == 0 || len(done) != 1 {
			t.Fatalf("%v: %d recovery entries, %d done events", kind, len(enter), len(done))
		}
		from, to := enter[0].At, done[0].At
		want := goodputBps(ackHighWater(evs, from, to), from, to)
		if row.RecoveryGoodputBps != want || want == 0 {
			t.Fatalf("%v: recovery goodput %v, event stream says %v", kind, row.RecoveryGoodputBps, want)
		}
	}
}

// TestExitBurstCountsWindow feeds the exit-burst sink a hand-built
// stream: only sends from the first exit on count, and the window is
// inclusive at both ends.
func TestExitBurstCountsWindow(t *testing.T) {
	b := &exitBurst{window: 10}
	for _, ev := range []telemetry.Event{
		{At: 5, Kind: telemetry.KSend},          // before the exit
		{At: 20, Kind: telemetry.KRecoveryExit}, // window [20, 30]
		{At: 20, Kind: telemetry.KSend},
		{At: 20, Kind: telemetry.KRetransmit},
		{At: 25, Kind: telemetry.KAck},
		{At: 30, Kind: telemetry.KSend},
		{At: 31, Kind: telemetry.KSend},         // past the window
		{At: 40, Kind: telemetry.KRecoveryExit}, // later exits are ignored
		{At: 40, Kind: telemetry.KSend},
	} {
		b.Emit(ev)
	}
	if b.count != 3 {
		t.Fatalf("exit burst = %d, want 3", b.count)
	}
}

func TestGoodputEmptyWindow(t *testing.T) {
	if goodputBps(1000, time.Second, time.Second) != 0 {
		t.Fatal("zero-width window produced goodput")
	}
	if goodputBps(1000, 2*time.Second, time.Second) != 0 {
		t.Fatal("inverted window produced goodput")
	}
}

func TestGoodputBps(t *testing.T) {
	// 20 KB acknowledged over [0, 2s] is 80 Kbps.
	if got := goodputBps(20_000, 0, 2*time.Second); got != 80_000 {
		t.Fatalf("goodput = %v, want 80000", got)
	}
	// 10 KB over (1s, 2s], as runAcked reads a window, is ~80 Kbps.
	if got := goodputBps(10_000, time.Second+1, 2*time.Second); got < 79_000 || got > 81_000 {
		t.Fatalf("windowed goodput = %v, want ~80000", got)
	}
	if goodputBps(0, 0, time.Second) != 0 || goodputBps(-1, 0, time.Second) != 0 {
		t.Fatal("no acknowledged bytes produced goodput")
	}
}
