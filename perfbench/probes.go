package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"rrtcp"
)

// Fixed-depth probes for single layers. Each times one layer's public
// operations at a set depth or pattern, independent of any workload,
// and reports the median over a few repeats. The traced run of the
// workload whose wall time the layer should move runs them.

// probeRepeats is how many times each probe repeats its measurement.
const probeRepeats = 5

// scale shrinks a probe's operation count for test-sized runs.
func scale(n int, tiny bool) int {
	if tiny {
		return n / 50
	}
	return n
}

// timerProbe times Timer.At plus the fire at a fixed pending depth:
// depth timers each re-arm themselves a random delay ahead when they
// fire, so the scheduler's heap holds exactly depth events throughout.
// It reports nanoseconds per event.
func timerProbe(depth int, tiny bool) float64 {
	var delays [1024]time.Duration
	rng := rand.New(rand.NewSource(1))
	for i := range delays {
		delays[i] = time.Duration(1+rng.Intn(100_000)) * time.Microsecond
	}
	events := scale(1_000_000, tiny)
	var samples []float64
	for r := 0; r < probeRepeats; r++ {
		s := rrtcp.NewScheduler(1)
		k := 0
		for i := 0; i < depth; i++ {
			var t *rrtcp.Timer
			t = s.NewTimer(func() {
				k++
				t.At(s.Now() + delays[k&(len(delays)-1)]) //nolint:errcheck // a future instant is never in the past
			})
			t.At(delays[i&(len(delays)-1)]) //nolint:errcheck // a future instant is never in the past
		}
		// Each timer fires every 50 ms on average, so events/depth x 50 ms
		// of simulated time holds about events events; run it in ten steps.
		step := time.Duration(float64(events) / float64(depth) * 0.05 * float64(time.Second) / 10)
		start := time.Now()
		for s.Processed() < uint64(events) {
			s.Run(s.Now() + step)
		}
		samples = append(samples, float64(time.Since(start).Nanoseconds())/float64(s.Processed()))
	}
	return median(samples)
}

// queueProbe times Enqueue plus Dequeue on one queue discipline held at
// a fixed depth of 64 packets from 8 flows, with the many-flows
// workload's buffer sizes (RED's thresholds lie above the depth, so it
// never drops). It reports nanoseconds per Enqueue+Dequeue pair.
func queueProbe(kind string, tiny bool) (float64, error) {
	const depth = 64
	ops := scale(1_000_000, tiny)
	red := manyFlowsREDConfig(manyFlowsFull.flows)
	var samples []float64
	for r := 0; r < probeRepeats; r++ {
		s := rrtcp.NewScheduler(1)
		var q rrtcp.QueueDiscipline
		var err error
		switch kind {
		case "droptail":
			q, err = rrtcp.NewDropTailQueue(s, red.Limit)
		case "red":
			q, err = rrtcp.NewREDQueue(s, red)
		case "drr":
			q, err = rrtcp.NewDRRQueue(s, rrtcp.DRRConfig{QuantumBytes: 1040, LimitPackets: red.Limit})
		default:
			err = fmt.Errorf("unknown queue %q", kind)
		}
		if err != nil {
			return 0, err
		}
		now := time.Duration(0)
		for i := 0; i < depth; i++ {
			if !q.Enqueue(dataPacket(i%8, int64(i)*rrtcp.DefaultMSS), now) {
				return 0, fmt.Errorf("%s queue refused a packet while filling", kind)
			}
		}
		tx := 100 * time.Microsecond // one 1040-byte packet at 80 Mbit/s
		start := time.Now()
		for i := 0; i < ops; i++ {
			now += tx
			p := q.Dequeue()
			if !q.Enqueue(p, now) {
				return 0, fmt.Errorf("%s queue dropped at fixed depth %d", kind, depth)
			}
		}
		samples = append(samples, float64(time.Since(start).Nanoseconds())/float64(ops))
	}
	return median(samples), nil
}

// dataPacket returns an unpooled 1000-byte data segment. Kind 1 is the
// data kind (netem's Data constant, which the facade does not re-export).
func dataPacket(flow int, seq int64) *rrtcp.Packet {
	return &rrtcp.Packet{Flow: flow, Kind: 1, Seq: seq, Len: rrtcp.DefaultMSS, Size: rrtcp.DefaultMSS + 40}
}

// ackSink releases the acknowledgments a receiver sends.
type ackSink struct{}

func (ackSink) Receive(p *rrtcp.Packet) { p.Release() }

// recvProbe times Receiver.Receive, including the ACK it sends, for a
// SACK receiver. In order, every segment advances the window; out of
// order, each cycle of eight delivers segments 1..7 ahead of a hole and
// then the hole, so seven of eight arrivals are buffered with a SACK
// duplicate ACK and the eighth drains them. It reports nanoseconds per
// segment.
func recvProbe(ooo bool, tiny bool) (float64, error) {
	segs := scale(400_000, tiny)
	var samples []float64
	for r := 0; r < probeRepeats; r++ {
		s := rrtcp.NewScheduler(1)
		net, err := rrtcp.NewDumbbell(s, rrtcp.PaperDropTailConfig(1))
		if err != nil {
			return 0, err
		}
		// The scheduler never runs, so the sender never starts.
		flow, err := rrtcp.InstallFlow(s, net, 0, rrtcp.FlowSpec{Kind: rrtcp.SACK, Bytes: rrtcp.Infinite})
		if err != nil {
			return 0, err
		}
		recv := flow.Receiver
		recv.SetOutput(ackSink{})
		p := dataPacket(0, 0)
		start := time.Now()
		for i := 0; i < segs; i++ {
			n := int64(i)
			if ooo {
				base, k := n&^7, n&7
				n = base + (k+1)&7 // 1..7, then 0
			}
			p.Seq = n * rrtcp.DefaultMSS
			recv.Receive(p)
		}
		samples = append(samples, float64(time.Since(start).Nanoseconds())/float64(segs))
		if want := int64(segs) * rrtcp.DefaultMSS; recv.RcvNxt() != want {
			return 0, fmt.Errorf("receiver delivered %d bytes, want %d", recv.RcvNxt(), want)
		}
	}
	return median(samples), nil
}

// transferProbe times one fig5-style burst-loss transfer of the given
// variant: 150 segments over the paper's drop-tail dumbbell with
// segments 60, 61 and 63 lost in one window. It reports microseconds of
// Scheduler.Run per transfer; set-up is excluded.
func transferProbe(kind rrtcp.Kind, tiny bool) (float64, error) {
	reps := scale(500, tiny)
	var samples []float64
	for r := 0; r < reps; r++ {
		s := rrtcp.NewScheduler(1)
		loss := rrtcp.NewSeqLoss(s)
		for _, pk := range []int64{60, 61, 63} {
			loss.Drop(0, pk*rrtcp.DefaultMSS)
		}
		cfg := rrtcp.PaperDropTailConfig(1)
		cfg.Loss = loss
		net, err := rrtcp.NewDumbbell(s, cfg)
		if err != nil {
			return 0, err
		}
		flow, err := rrtcp.InstallFlow(s, net, 0, rrtcp.FlowSpec{
			Kind: kind, Bytes: 150 * rrtcp.DefaultMSS, Window: 18, InitialSSThresh: 9,
		})
		if err != nil {
			return 0, err
		}
		start := time.Now()
		s.Run(60 * time.Second)
		samples = append(samples, float64(time.Since(start).Nanoseconds())/1e3)
		if !flow.Sender.Done() {
			return 0, fmt.Errorf("%v transfer did not finish", kind)
		}
	}
	return median(samples), nil
}

// tcpProbes fills the tcp.recv_ns and tcp.transfer_us metrics.
func tcpProbes(b *bench) error {
	for _, ooo := range []bool{false, true} {
		ns, err := recvProbe(ooo, b.cfg.tiny)
		if err != nil {
			return err
		}
		b.layer[map[bool]string{false: "tcp.recv_ns.inorder", true: "tcp.recv_ns.ooo"}[ooo]] = ns
	}
	for _, k := range rrtcp.Kinds() {
		us, err := transferProbe(k, b.cfg.tiny)
		if err != nil {
			return err
		}
		b.layer["tcp.transfer_us."+k.String()] = us
	}
	return nil
}

// telemetryProbes captures the event stream of one observed fig5 run
// and replays it into each sink of the observed bus on its own,
// reporting the stream's length and nanoseconds per Emit for each sink.
func telemetryProbes(b *bench) error {
	ring := rrtcp.NewTelemetryRing(0)
	if _, err := runFig5(rrtcp.NewTelemetryBus(ring), nil, 0); err != nil {
		return err
	}
	events := ring.Events()
	b.layer["telemetry.events"] = float64(len(events))
	replays := scale(50, b.cfg.tiny) + 1
	sinks := []struct {
		name string
		make func() (rrtcp.TelemetrySink, func() error)
	}{
		{"ndjson", func() (rrtcp.TelemetrySink, func() error) {
			s := rrtcp.NewNDJSONSink(io.Discard)
			return s, s.Flush
		}},
		{"flowtable", func() (rrtcp.TelemetrySink, func() error) {
			return rrtcp.NewFlowTable(rrtcp.FlowStatsConfig{}), func() error { return nil }
		}},
		{"span", func() (rrtcp.TelemetrySink, func() error) {
			return rrtcp.NewSpanSink(), func() error { return nil }
		}},
	}
	for _, sk := range sinks {
		var samples []float64
		for r := 0; r < replays; r++ {
			sink, flush := sk.make()
			start := time.Now()
			for _, ev := range events {
				sink.Emit(ev)
			}
			if err := flush(); err != nil {
				return err
			}
			samples = append(samples, float64(time.Since(start).Nanoseconds())/float64(len(events)))
		}
		b.layer["telemetry.emit_ns."+sk.name] = median(samples)
	}
	return nil
}
