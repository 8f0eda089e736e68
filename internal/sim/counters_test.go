package sim_test

import (
	"testing"
	"time"

	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
)

// chain arms a self-re-arming timer that fires n times on s.
func chain(s *sim.Scheduler, n int) {
	left := n
	var tm *sim.Timer
	tm = s.NewTimer(func() {
		left--
		if left > 0 {
			tm.Reset(time.Millisecond)
		}
	})
	tm.Reset(0)
}

// TestGlobalCountersFlushRemainder checks the batched event counter:
// a run processing fewer events than the flush interval must still
// land them in the process-wide total when Run returns (the deferred
// remainder flush). Deltas are used because the counters are shared
// with every other test in the binary.
func TestGlobalCountersFlushRemainder(t *testing.T) {
	const n = 100 // well under the flush interval
	before, _ := sim.GlobalCounters()
	s := sim.NewScheduler(1)
	chain(s, n)
	s.RunAll()
	after, _ := sim.GlobalCounters()
	if got := after - before; got < n {
		t.Errorf("global events grew by %d, want >= %d", got, n)
	}
	if s.Processed() != n {
		t.Errorf("Processed() = %d, want %d", s.Processed(), n)
	}
}

// TestGlobalCountersBatchBoundary crosses the flush interval to
// exercise the in-loop flush path as well as the remainder.
func TestGlobalCountersBatchBoundary(t *testing.T) {
	const n = sim.GlobalFlushEvery + sim.GlobalFlushEvery/2
	before, _ := sim.GlobalCounters()
	s := sim.NewScheduler(2)
	chain(s, n)
	s.RunAll()
	after, _ := sim.GlobalCounters()
	if got := after - before; got < n {
		t.Errorf("global events grew by %d, want >= %d", got, n)
	}
}

// TestCountPackets drives packets through a link, which counts each
// transmission on its scheduler, and checks that Run's flushes land
// exactly that many in the process-wide total. The run spans more than
// one flush interval, so both the in-loop and the deferred flush carry
// packets. No test in this package runs in parallel, so the delta is
// exact.
func TestCountPackets(t *testing.T) {
	const n = sim.GlobalFlushEvery
	s := sim.NewScheduler(1)
	l := netem.Must(netem.NewLink(s, 8e6, time.Millisecond, nil,
		netem.NodeFunc(func(*netem.Packet) {})))
	_, before := sim.GlobalCounters()
	for i := 0; i < n; i++ {
		l.Receive(&netem.Packet{Kind: netem.Data, Size: 1000, Len: 1000})
	}
	s.RunAll()
	_, after := sim.GlobalCounters()
	if got := after - before; got != n {
		t.Errorf("global packets grew by %d, want %d", got, n)
	}
	if l.TxPackets != n {
		t.Errorf("link transmitted %d packets, want %d", l.TxPackets, n)
	}
}
