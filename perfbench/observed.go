package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rrtcp"
)

// The observed-fig5 workload: fig5 at 3 drops, run repeatedly with a
// telemetry bus carrying an NDJSON sink (writing to a byte counter), a
// FlowTable and a SpanSink, interleaved in the same process with the
// same run on a nil bus. Telemetry publishing and fig5's capture and
// in-order republish of every job's events dominate the observed runs;
// the ratio of the two is the cost of observing. The inputs are fig5's
// fixed configuration; the seed only decides which of each pair runs
// first.

// observedSinks is one observed run's bus and sinks.
type observedSinks struct {
	bus    *rrtcp.TelemetryBus
	ndjson *rrtcp.NDJSONSink
	bytes  *countWriter
	table  *rrtcp.FlowTable
	spans  *rrtcp.SpanSink
}

func newObservedSinks(hash bool) *observedSinks {
	s := &observedSinks{bytes: &countWriter{}}
	if hash {
		s.bytes.h = sha256.New()
	}
	s.ndjson = rrtcp.NewNDJSONSink(s.bytes)
	s.table = rrtcp.NewFlowTable(rrtcp.FlowStatsConfig{})
	s.spans = rrtcp.NewSpanSink()
	s.bus = rrtcp.NewTelemetryBus(s.ndjson, s.table, s.spans)
	return s
}

// seen flushes the sinks and returns what they saw, with the NDJSON
// digest when the stream was hashed.
func (s *observedSinks) seen() (observedRecord, string, error) {
	if err := s.ndjson.Flush(); err != nil {
		return observedRecord{}, "", err
	}
	got := observedRecord{
		NDJSONBytes: s.bytes.n,
		Completed:   s.table.Summary().Completed,
		Spans:       len(s.spans.Spans()),
	}
	var d string
	if s.bytes.h != nil {
		d = hex.EncodeToString(s.bytes.h.Sum(nil))
	}
	return got, d, nil
}

// check compares what the sinks saw with the recorded values, and the
// NDJSON digest too when the stream was hashed.
func (s *observedSinks) check() error {
	got, d, err := s.seen()
	if err != nil {
		return err
	}
	if got != recordedObserved {
		return fmt.Errorf("observed fig5 sinks saw %+v, recorded %+v", got, recordedObserved)
	}
	if d != "" && d != recordedObservedDigest {
		return fmt.Errorf("observed fig5 NDJSON digest %s, recorded %s", d, recordedObservedDigest)
	}
	return nil
}

// runFig5 runs fig5 at 3 drops, on the given bus (nil for none), and
// checks its table against the paper's figures.
func runFig5(bus *rrtcp.TelemetryBus, tr *tracer, parent int) (experimentRun, error) {
	r, err := runExperiment("fig5", rrtcp.ExperimentOptions{Drops: 3, Telemetry: bus}, tr, parent)
	if err != nil {
		return r, err
	}
	return r, checkFig5(r.res)
}

func runObservedFig5(b *bench) error {
	pairs := 20 // observed/null pairs per repetition
	if b.cfg.tiny {
		pairs = 2
	}
	rng := rand.New(rand.NewSource(b.cfg.seed))
	b.note("input: fig5 at 3 drops, %d observed/null pairs per repetition", pairs)

	var m repMetrics
	var overhead, runsPerS []float64
	err := b.measure(3, telemetryProbes, func(t *tracer, measured bool) error {
		root := t.begin("observed-fig5", 0)
		defer t.end(root)
		var r repSample
		var nullWall time.Duration
		runtime.GC()
		peak := startHeapPeak()
		for i := 0; i < pairs; i++ {
			observedFirst := rng.Intn(2) == 0
			for _, observed := range [2]bool{observedFirst, !observedFirst} {
				if !observed {
					run, err := runFig5(nil, t, root)
					b.op(run.jobs, err)
					nullWall += run.wall
					continue
				}
				// The warm-up's first observed run also hashes the NDJSON
				// stream; timed runs only count its bytes.
				t0 := time.Now()
				sinks := newObservedSinks(!measured && i == 0)
				sinkSetup := time.Since(t0)
				run, err := runFig5(sinks.bus, t, root)
				if err == nil {
					err = sinks.check()
				}
				b.op(run.jobs, err)
				r.setup += sinkSetup + run.setup
				r.wall += run.wall
				r.events += run.events
				r.pkts += run.pkts
				r.allocs += run.allocs
				r.jobs += run.jobs
				r.sweep.add(run.sweep)
			}
		}
		r.peakHeap = peak.Stop()
		if !measured {
			return nil
		}
		r.setup /= time.Duration(pairs)
		m.add(r, t != nil)
		overhead = append(overhead, r.wall.Seconds()/nullWall.Seconds())
		runsPerS = append(runsPerS, float64(pairs)/r.wall.Seconds())
		return nil
	})
	if err != nil {
		return err
	}
	m.report(b)
	b.note("observe_overhead_x %.3f (observed wall / null-bus wall), runs_per_s %.1f (observed fig5 runs)",
		median(overhead), median(runsPerS))
	if b.cfg.trace {
		b.layer["telemetry.observe_overhead_x"] = median(overhead)
	}
	return nil
}
