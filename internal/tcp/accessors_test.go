package tcp

import (
	"testing"
	"time"

	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
	"rrtcp/internal/telemetry"
)

func TestSenderAccessors(t *testing.T) {
	n := newTestNet(t, NewTahoe(), testNetConfig{totalBytes: 10 * 1000, window: 7})
	s := n.sender
	if s.Flow() != 0 {
		t.Fatalf("Flow = %d", s.Flow())
	}
	if s.VariantName() != "tahoe" {
		t.Fatalf("VariantName = %q", s.VariantName())
	}
	if s.Window() != 7 {
		t.Fatalf("Window = %d", s.Window())
	}
	if s.TotalBytes() != 10*1000 {
		t.Fatalf("TotalBytes = %d", s.TotalBytes())
	}
	if s.MSS() != DefaultMSS {
		t.Fatalf("MSS = %d", s.MSS())
	}
	if !s.HasNewData() {
		t.Fatal("HasNewData false before transfer")
	}
	if !s.Telemetry().Enabled() {
		t.Fatal("Telemetry accessor")
	}
	n.start(t)
	n.run(10 * time.Second)
	if s.HasNewData() {
		t.Fatal("HasNewData true after transfer")
	}
}

func TestRetransmitClampsToTransferEnd(t *testing.T) {
	// A retransmission at the last (short) segment must not exceed the
	// transfer length, and one past the end must be a no-op.
	n := newTestNet(t, NewTahoe(), testNetConfig{totalBytes: 2500})
	n.start(t)
	n.run(5 * time.Second)
	if !n.sender.Done() {
		t.Fatal("transfer incomplete")
	}
	before := n.sender.Retransmits()
	n.sender.Retransmit(2000) // 500-byte tail, but transfer is done
	n.sender.Retransmit(9000) // beyond the end entirely
	if n.sender.Retransmits() != before {
		t.Fatal("retransmit after completion emitted segments")
	}
}

func TestRetransmitShortTail(t *testing.T) {
	// Lose the final, sub-MSS segment: its retransmission must carry
	// only the remaining bytes.
	n := newTestNet(t, NewTahoe(), testNetConfig{totalBytes: 5500, window: 4})
	n.loss.Drop(0, 5000)
	n.start(t)
	n.run(30 * time.Second)
	if !n.sender.Done() {
		t.Fatal("transfer incomplete")
	}
	if n.recv.Delivered != 5500 {
		t.Fatalf("delivered %d, want 5500", n.recv.Delivered)
	}
}

func TestStrategyIntrospectionAccessors(t *testing.T) {
	reno := NewReno4BSD()
	if reno.InRecovery() {
		t.Fatal("fresh Reno in recovery")
	}
	nr := NewNewReno()
	if nr.InRecovery() || nr.Recover() != 0 {
		t.Fatal("fresh New-Reno state")
	}
	sack := NewSACK()
	if sack.InRecovery() || len(sack.Scoreboard()) != 0 {
		t.Fatal("fresh SACK state")
	}
	fack := NewFACK()
	if fack.InRecovery() || fack.Fack() != 0 {
		t.Fatal("fresh FACK state")
	}
	re := NewRightEdge()
	if re.InRecovery() {
		t.Fatal("fresh right-edge state")
	}
	lk := NewLinKung()
	if lk.InRecovery() {
		t.Fatal("fresh Lin-Kung state")
	}
}

func TestSACKPipeAccessorDuringRecovery(t *testing.T) {
	n := newTestNet(t, NewSACK(), testNetConfig{
		totalBytes: 0, window: 24, ssthresh: 12, sack: true,
	})
	strat, ok := n.sender.strat.(*SACKStrategy)
	if !ok {
		t.Fatal("strategy type")
	}
	dropBurst(n, 40, 2)
	n.start(t)
	// Run until recovery is active.
	for i := 0; i < 500 && !strat.InRecovery(); i++ {
		n.sched.Run(n.sched.Now() + 10*time.Millisecond)
	}
	if !strat.InRecovery() {
		t.Fatal("recovery never entered")
	}
	if strat.Pipe(n.sender) < 0 {
		t.Fatal("negative pipe")
	}
	if len(strat.Scoreboard()) == 0 {
		t.Fatal("empty scoreboard during recovery")
	}
}

func TestReceiverSetOutputRedirects(t *testing.T) {
	sink := &ackSink{}
	r, orig := newRecv(false)
	r.SetOutput(sink)
	r.Receive(data(0))
	if len(sink.acks) != 1 {
		t.Fatal("redirected output missed the ACK")
	}
	if len(orig.acks) != 0 {
		t.Fatal("original output still receiving")
	}
}

func TestTimerExpiresAtUnarmed(t *testing.T) {
	sched := sim.NewScheduler(1)
	timer := sched.NewTimer(func() {})
	if timer.ExpiresAt() != 0 {
		t.Fatal("unarmed timer has an expiry")
	}
}

func TestSenderWindowAccessorsViaTopology(t *testing.T) {
	sched := sim.NewScheduler(1)
	d, err := netem.NewDumbbell(sched, netem.PaperDropTailConfig(1))
	if err != nil {
		t.Fatalf("dumbbell: %v", err)
	}
	if d.ForwardLink() == nil || d.ReverseLink() == nil {
		t.Fatal("link accessors nil")
	}
	if d.Config().Flows != 1 {
		t.Fatalf("config flows = %d", d.Config().Flows)
	}
	q := d.BottleneckQueue()
	if q.Len() != 0 {
		t.Fatalf("fresh queue len %d", q.Len())
	}
	if q.Discipline() == nil {
		t.Fatal("discipline accessor nil")
	}
}

func TestTransferDelay(t *testing.T) {
	var n *testNet
	var doneAt sim.Time
	n = newTestNet(t, NewNewReno(), testNetConfig{
		totalBytes: 20 * 1000,
		onDone:     func() { doneAt = n.sched.Now() },
	})
	if _, ok := n.sender.TransferDelay(); ok {
		t.Fatal("unstarted flow reports a transfer delay")
	}
	if err := n.sender.Start(2 * time.Second); err != nil {
		t.Fatalf("start: %v", err)
	}
	n.run(10 * time.Second)
	delay, ok := n.sender.TransferDelay()
	if !ok || n.sender.StartedAt() != 2*time.Second || delay != doneAt-2*time.Second {
		t.Fatalf("delay = %v, %v; started %v, done %v", delay, ok, n.sender.StartedAt(), doneAt)
	}
}

func TestLossRate(t *testing.T) {
	n := newTestNet(t, NewNewReno(), testNetConfig{totalBytes: 90 * 1000, window: 20})
	n.loss.Drop(0, 30*1000)
	n.start(t)
	n.run(30 * time.Second)
	sends, rtx := n.counts()
	if sends != 90 || rtx != 1 {
		t.Fatalf("sends %d, retransmits %d; want 90 and 1", sends, rtx)
	}
	if got := n.sender.LossRate(); got != 1.0/91 {
		t.Fatalf("loss rate = %v, want 1/91", got)
	}
}

func TestLossRateEmpty(t *testing.T) {
	n := newTestNet(t, NewNewReno(), testNetConfig{totalBytes: 20 * 1000, window: 20})
	if n.sender.LossRate() != 0 {
		t.Fatal("fresh sender loss rate nonzero")
	}
	n.start(t)
	n.run(10 * time.Second)
	if sends, rtx := n.counts(); sends != 20 || rtx != 0 {
		t.Fatalf("sends %d, retransmits %d; want 20 and 0", sends, rtx)
	}
	if got := n.sender.LossRate(); got != 0 {
		t.Fatalf("lossless transfer loss rate = %v, want 0", got)
	}
}

// TestSenderCounters checks each sender counter against the events it
// publishes, through a loss that New-Reno repairs by fast retransmit
// and a second one that only the retransmission timer repairs.
func TestSenderCounters(t *testing.T) {
	n := newTestNet(t, NewNewReno(), testNetConfig{totalBytes: 30 * 1000, window: 8})
	n.loss.Drop(0, 10*1000)
	// The last segment has no successors to raise duplicate ACKs.
	n.loss.Drop(0, 29*1000)
	n.start(t)
	n.run(30 * time.Second)
	s := n.sender
	if !s.Done() {
		t.Fatal("transfer incomplete")
	}
	if s.Sends() != 30 || s.Retransmits() != 2 || s.Timeouts() != 1 {
		t.Fatalf("sends %d, retransmits %d, timeouts %d; want 30, 2 and 1",
			s.Sends(), s.Retransmits(), s.Timeouts())
	}
	for _, c := range []struct {
		kind telemetry.Kind
		n    uint32
	}{
		{telemetry.KSend, s.Sends()},
		{telemetry.KRetransmit, s.Retransmits()},
		{telemetry.KTimeout, s.Timeouts()},
		{telemetry.KAck, s.Acks()},
	} {
		if got := len(n.ring.EventsOf(c.kind)); got != int(c.n) {
			t.Fatalf("%v events %d != sender counter %d", c.kind, got, c.n)
		}
	}
	if s.Acks() < s.Sends() {
		t.Fatalf("acks %d < sends %d with an ACK per segment", s.Acks(), s.Sends())
	}
}
