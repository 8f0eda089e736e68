package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rrtcp"
)

// The many-flows workload: one scheduler runs about a thousand
// concurrent long-lived flows of mixed variants (rr, newreno, sack,
// reno), window 30, over a RED dumbbell, on one goroutine with the
// default FlowTrace and no telemetry bus. The heap holds about two
// thousand pending events and per-packet link and queue work dominates,
// so engine, link and trace changes show here while the sweep and
// telemetry layers do no work.
//
// Scaling choice. The naive way to scale the paper's headline world is
// to keep its 25-packet RED buffer and start every flow at t=0. At 5000
// flows that world processes only 30,806 events in 6 s of simulated
// time against 313k at 1000 flows: the flows spend the run in
// retransmission-timeout backoff, so it measures RTO backoff, not the
// engine. Instead the bottleneck grows with the flow count (80 kbit/s
// per flow, the paper's 0.8 Mbit/s per ten flows), RED's thresholds
// and buffer grow by flows/10, and starts are staggered at random over
// the first simulated second.

// manyFlowsSize is the world's scale.
type manyFlowsSize struct {
	flows   int
	horizon time.Duration
}

var (
	manyFlowsFull = manyFlowsSize{flows: 1000, horizon: 20 * time.Second}
	manyFlowsTiny = manyFlowsSize{flows: 40, horizon: 3 * time.Second}
)

// inputSeeds are the seeds many-flows and chaos-sweep build their
// inputs from; --seed selects one, and recorded.go holds each one's
// expected outputs.
var inputSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}

// inputSeed maps the benchmark seed onto one of the recorded inputs.
func inputSeed(seed int64) int64 {
	return inputSeeds[uint64(seed)%uint64(len(inputSeeds))]
}

// manyFlowsSpecs generates the flow specs: a random variant of the four
// and a random start in the first simulated second for each flow.
func manyFlowsSpecs(seed int64, n int) []rrtcp.FlowSpec {
	rng := rand.New(rand.NewSource(seed))
	kinds := []rrtcp.Kind{rrtcp.RR, rrtcp.NewReno, rrtcp.SACK, rrtcp.Reno}
	specs := make([]rrtcp.FlowSpec, n)
	for i := range specs {
		specs[i] = rrtcp.FlowSpec{
			Kind:    kinds[rng.Intn(len(kinds))],
			StartAt: time.Duration(rng.Int63n(int64(time.Second))),
			Bytes:   rrtcp.Infinite,
			Window:  30,
		}
	}
	return specs
}

// manyFlowsREDConfig is the paper's Table 4 RED gateway scaled to n
// flows.
func manyFlowsREDConfig(n int) rrtcp.REDConfig {
	scale := float64(n) / 10
	red := rrtcp.PaperREDConfig()
	red.MinThreshold *= scale
	red.MaxThreshold *= scale
	red.Limit = int(float64(red.Limit) * scale)
	red.LinkBandwidthBps = 80e3 * float64(n)
	return red
}

// manyFlowsOutcome is what one world run produced.
type manyFlowsOutcome struct {
	setup, install, wall time.Duration
	events, packets      uint64
	delivered, sentPkts  int64
	highWater            int
	drops                uint64
	poolHit              float64
	rtx, timeouts        uint64
	peakHeap             uint64
	allocs               uint64
	liveSetup, liveEnd   uint64
}

// runManyFlowsWorld builds and runs one world. Garbage is collected
// before the timed run so every repetition starts from the same heap.
func runManyFlowsWorld(seed int64, size manyFlowsSize, specs []rrtcp.FlowSpec, tr *tracer, parent int) (manyFlowsOutcome, error) {
	var o manyFlowsOutcome
	runtime.GC()
	sp := tr.begin("build", parent)
	t0 := time.Now()
	sched := rrtcp.NewScheduler(seed)
	red, err := rrtcp.NewREDQueue(sched, manyFlowsREDConfig(size.flows))
	if err != nil {
		return o, err
	}
	netCfg := rrtcp.PaperDropTailConfig(size.flows)
	netCfg.BottleneckBps = 80e3 * float64(size.flows)
	netCfg.ForwardQueue = red
	net, err := rrtcp.NewDumbbell(sched, netCfg)
	if err != nil {
		return o, err
	}
	t1 := time.Now()
	ins := tr.begin("workload.InstallFlows", sp)
	flows, err := rrtcp.InstallFlows(sched, net, specs)
	tr.end(ins)
	t2 := time.Now()
	tr.end(sp)
	if err != nil {
		return o, err
	}
	o.setup, o.install = t2.Sub(t0), t2.Sub(t1)
	o.liveSetup = liveHeap()

	ev0, pk0 := rrtcp.SimCounters()
	al0 := mallocs()
	peak := startHeapPeak()
	rs := tr.begin("sim.Run", parent)
	t3 := time.Now()
	sched.Run(size.horizon)
	o.wall = time.Since(t3)
	tr.end(rs)
	o.peakHeap = peak.Stop()
	o.allocs = mallocs() - al0
	ev1, pk1 := rrtcp.SimCounters()
	o.events, o.packets = ev1-ev0, pk1-pk0
	if p := sched.Processed(); p != o.events {
		return o, fmt.Errorf("scheduler processed %d events but the process counter moved by %d", p, o.events)
	}
	o.highWater = sched.HeapHighWater()
	o.drops = net.BottleneckQueue().Drops
	o.poolHit = net.Pool().HitRate()
	for i, f := range flows {
		o.delivered += f.Receiver.RcvNxt()
		o.rtx += uint64(f.Sender.Retransmits())
		o.timeouts += uint64(f.Sender.Timeouts())
		if l, ok := net.SenderPort(i).(*rrtcp.Link); ok {
			o.sentPkts += int64(l.TxPackets)
		}
	}
	o.liveEnd = liveHeap()
	runtime.KeepAlive(flows)
	return o, nil
}

// manyFlowsCheck compares a world's counts with the recorded ones.
func manyFlowsCheck(o manyFlowsOutcome, want manyFlowsRecord) error {
	got := manyFlowsRecord{Events: o.events, Packets: o.packets, Delivered: o.delivered}
	if got != want {
		return fmt.Errorf("many-flows counts %+v, recorded %+v", got, want)
	}
	return nil
}

// manyFlowsProbes times the scheduler at two fixed heap depths and
// each queue discipline at a fixed depth.
func manyFlowsProbes(b *bench) error {
	b.layer["sim.timer_ns.d64"] = timerProbe(64, b.cfg.tiny)
	b.layer["sim.timer_ns.d4096"] = timerProbe(4096, b.cfg.tiny)
	for _, q := range []string{"droptail", "red", "drr"} {
		ns, err := queueProbe(q, b.cfg.tiny)
		if err != nil {
			return err
		}
		b.layer["netem.queue_ns."+q] = ns
	}
	return nil
}

func runManyFlows(b *bench) error {
	size, records := manyFlowsFull, recordedManyFlows
	if b.cfg.tiny {
		size, records = manyFlowsTiny, recordedManyFlowsTiny
	}
	seed := inputSeed(b.cfg.seed)
	want, ok := records[seed]
	if !ok {
		return fmt.Errorf("no recorded values for input seed %d", seed)
	}
	specs := manyFlowsSpecs(seed, size.flows)
	b.note("input: %d flows x %v simulated, input seed %d", size.flows, size.horizon, seed)

	var m repMetrics
	var last manyFlowsOutcome
	var install, perFlow []float64
	n := float64(size.flows)
	err := b.measure(3, manyFlowsProbes, func(t *tracer, measured bool) error {
		root := t.begin("many-flows", 0)
		o, err := runManyFlowsWorld(seed, size, specs, t, root)
		t.end(root)
		if err != nil {
			return err
		}
		b.op(1, manyFlowsCheck(o, want))
		if measured {
			m.add(repSample{setup: o.setup, wall: o.wall, events: o.events, pkts: o.packets,
				allocs: o.allocs, jobs: 1, peakHeap: o.peakHeap}, t != nil)
			install = append(install, o.install.Seconds()*1e6/n)
			perFlow = append(perFlow, (float64(o.liveEnd)-float64(o.liveSetup))/n)
			last = o
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.report(b)
	if b.cfg.trace {
		// The simulated counts are identical in every repetition.
		b.layer["sim.heap_highwater"] = float64(last.highWater)
		b.layer["netem.pool_hit_ratio"] = last.poolHit
		b.layer["netem.fwd_drops"] = float64(last.drops)
		b.layer["tcp.rtx_per_flow"] = float64(last.rtx) / n
		b.layer["tcp.timeouts_per_flow"] = float64(last.timeouts) / n
		b.layer["tcp.goodput_ratio"] = float64(last.delivered) / float64(last.sentPkts*rrtcp.DefaultMSS)
		b.layer["workload.install_us_per_flow"] = median(install)
		b.layer["trace.heap_bytes_per_flow"] = median(perFlow)
	}
	return nil
}
