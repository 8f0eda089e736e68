package workload

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
	"rrtcp/internal/tcp"
)

// steadyStateBytesPerFlow bounds what one long-lived flow may allocate
// over ten simulated seconds of steady state. Installed flows record no
// event stream, so the figure is flat in the event count: about 1.1 KB
// is measured (amd64), against about 42 KB when every flow kept an
// append-only per-flow trace.
const steadyStateBytesPerFlow = 4 << 10

// TestSteadyStateMemoryBounded runs 100 long-lived flows of mixed
// variants over a RED dumbbell and checks the bytes allocated between
// simulated seconds 10 and 20 against a per-flow bound: per-flow state
// must stay O(1), not grow with the events a flow produces.
func TestSteadyStateMemoryBounded(t *testing.T) {
	const flows = 100
	sched := sim.NewScheduler(1)
	// The paper's Table 4 gateway scaled to 100 flows: thresholds,
	// buffer and bottleneck bandwidth grow with the flow count.
	redCfg := netem.PaperREDConfig()
	scale := float64(flows) / 10
	redCfg.MinThreshold *= scale
	redCfg.MaxThreshold *= scale
	redCfg.Limit = int(float64(redCfg.Limit) * scale)
	redCfg.LinkBandwidthBps = 80e3 * flows
	red, err := netem.NewRED(redCfg, sched.Rand())
	if err != nil {
		t.Fatalf("red: %v", err)
	}
	dcfg := netem.PaperDropTailConfig(flows)
	dcfg.BottleneckBps = 80e3 * flows
	dcfg.ForwardQueue = red
	d, err := netem.NewDumbbell(sched, dcfg)
	if err != nil {
		t.Fatalf("dumbbell: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	kinds := []Kind{RR, NewReno, SACK, Reno}
	specs := make([]FlowSpec, flows)
	for i := range specs {
		specs[i] = FlowSpec{
			Kind:    kinds[rng.Intn(len(kinds))],
			StartAt: time.Duration(rng.Int63n(int64(time.Second))),
			Bytes:   tcp.Infinite,
			Window:  30,
		}
	}
	if _, err := InstallAll(sched, d, specs); err != nil {
		t.Fatalf("install: %v", err)
	}
	sched.Run(10 * time.Second)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	events := sched.Processed()
	sched.Run(20 * time.Second)
	runtime.ReadMemStats(&after)
	events = sched.Processed() - events

	perFlow := float64(after.TotalAlloc-before.TotalAlloc) / flows
	t.Logf("%d events in steady state, %.0f bytes allocated per flow", events, perFlow)
	if perFlow > steadyStateBytesPerFlow {
		t.Fatalf("steady state allocated %.0f bytes per flow over %d events, bound %d",
			perFlow, events, steadyStateBytesPerFlow)
	}
}
