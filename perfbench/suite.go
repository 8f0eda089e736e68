package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rrtcp"
)

// sweepObserver reads a sweep's engine telemetry from its progress bus:
// per-job wall times, per-worker busy time and the sweep's wall time.
// The sweep publishes these on its coordinating goroutine.
type sweepObserver struct {
	tr     *tracer
	parent int

	jobMs   []float64
	busy    float64 // summed worker busy seconds
	wall    float64 // sweep wall seconds
	workers int
}

// Emit implements rrtcp.TelemetrySink.
func (s *sweepObserver) Emit(ev rrtcp.TelemetryEvent) {
	switch ev.Kind.String() {
	case "sweep-job-time":
		s.jobMs = append(s.jobMs, ev.A*1e3)
		s.tr.add("sweep.job", s.parent, time.Now(), time.Duration(ev.A*float64(time.Second)), 1+int(ev.B))
	case "sweep-worker":
		s.busy += ev.A
		s.workers++
	case "sweep-done":
		s.wall += ev.B
	}
}

// experimentRun is one timed BuildExperiment + RunExperiment call.
type experimentRun struct {
	res          rrtcp.ExperimentResult
	jobs         int
	setup, wall  time.Duration
	events, pkts uint64
	allocs       uint64
	sweep        *sweepObserver
}

// runExperiment builds the named experiment and expands its jobs (the
// set-up), then runs it on the sweep engine (the timed work).
func runExperiment(name string, opts rrtcp.ExperimentOptions, tr *tracer, parent int) (experimentRun, error) {
	var r experimentRun
	sp := tr.begin(name, parent)
	defer tr.end(sp)
	su := tr.begin("experiments.Build", sp)
	t0 := time.Now()
	e, err := rrtcp.BuildExperiment(name, opts)
	if err != nil {
		return r, err
	}
	jobs, err := e.Jobs()
	if err != nil {
		return r, err
	}
	r.setup = time.Since(t0)
	tr.end(su)
	r.jobs = len(jobs)

	rs := tr.begin("experiments.Run", sp)
	r.sweep = &sweepObserver{tr: tr, parent: rs}
	ev0, pk0 := rrtcp.SimCounters()
	al0 := mallocs()
	t1 := time.Now()
	r.res, err = rrtcp.RunExperiment(e, rrtcp.ExperimentRunOptions{
		Parallel: runtime.NumCPU(), // one sweep worker per CPU
		Progress: rrtcp.NewTelemetryBus(r.sweep),
	})
	r.wall = time.Since(t1)
	tr.end(rs)
	r.allocs = mallocs() - al0
	ev1, pk1 := rrtcp.SimCounters()
	r.events, r.pkts = ev1-ev0, pk1-pk0
	return r, err
}

// encodeJSON renders a result exactly as `rrsim -json` does.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// suiteEntry is one experiment run of `rrsim all -quick`.
type suiteEntry struct {
	exp   string
	drops int
}

// paperSuite lists `rrsim all -quick` in its order: every registered
// experiment except chaos, with fig5 at 3 and at 6 drops.
func paperSuite() []suiteEntry {
	var s []suiteEntry
	for _, r := range rrtcp.Experiments() {
		switch r.Name {
		case "chaos":
		case "fig5":
			s = append(s, suiteEntry{"fig5", 3}, suiteEntry{"fig5", 6})
		default:
			s = append(s, suiteEntry{r.Name, 3})
		}
	}
	return s
}

// suiteNames lists the suite's experiment names once each.
func suiteNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, e := range paperSuite() {
		if !seen[e.exp] {
			seen[e.exp] = true
			names = append(names, e.exp)
		}
	}
	return names
}

// paperFig5 is the paper's Figure 5 reading at 3 drops, seed 1: goodput
// in Kbps as the fig5 table prints it.
var paperFig5 = map[rrtcp.Kind]string{rrtcp.RR: "510.6", rrtcp.NewReno: "490.6", rrtcp.SACK: "514.2"}

// checkFig5 compares a 3-drop fig5 result with the paper's figures.
func checkFig5(res rrtcp.ExperimentResult) error {
	r, ok := res.(*rrtcp.Figure5Result)
	if !ok {
		return fmt.Errorf("fig5 returned %T", res)
	}
	found := 0
	for _, row := range r.Rows {
		want, ok := paperFig5[row.Variant]
		if !ok {
			continue
		}
		found++
		if got := fmt.Sprintf("%.1f", row.GoodputBps/1e3); got != want {
			return fmt.Errorf("fig5 %v goodput %s Kbps, paper %s", row.Variant, got, want)
		}
	}
	if found != len(paperFig5) {
		return fmt.Errorf("fig5 result has %d of the %d checked variants", found, len(paperFig5))
	}
	return nil
}

// sweepTotals sums the engine telemetry of a repetition's sweeps.
type sweepTotals struct {
	wall, busy float64
	workers    int
	jobMs      []float64
}

func (t *sweepTotals) add(s *sweepObserver) {
	if s == nil { // the experiment failed before its sweep started
		return
	}
	t.wall += s.wall
	t.busy += s.busy
	t.workers = max(t.workers, s.workers)
	t.jobMs = append(t.jobMs, s.jobMs...)
}

// suiteOutcome is one run of the whole suite.
type suiteOutcome struct {
	setup, wall          time.Duration
	events, pkts, allocs uint64
	jobs                 int
	totals               sweepTotals
	expWall              map[string]float64
	digest               string
	err                  error // the first experiment error or check mismatch
}

// runSuite runs the paper suite's experiments in the given order,
// checks the 3-drop fig5 table against the paper, and digests the JSON
// output reassembled in canonical order.
func runSuite(order []int, tr *tracer) suiteOutcome {
	suite := paperSuite()
	root := tr.begin("paper-suite", 0)
	defer tr.end(root)
	o := suiteOutcome{expWall: map[string]float64{}}
	out := make([][]byte, len(suite))
	for _, i := range order {
		e := suite[i]
		r, err := runExperiment(e.exp, rrtcp.ExperimentOptions{Runs: 100, Drops: e.drops, Quick: true}, tr, root)
		o.jobs += r.jobs
		if err == nil {
			out[i], err = encodeJSON(r.res)
		}
		if err == nil && e.exp == "fig5" && e.drops == 3 {
			err = checkFig5(r.res)
		}
		if err != nil {
			if o.err == nil {
				o.err = fmt.Errorf("%s: %w", e.exp, err)
			}
			continue
		}
		o.setup += r.setup
		o.wall += r.wall
		o.events += r.events
		o.pkts += r.pkts
		o.allocs += r.allocs
		o.totals.add(r.sweep)
		o.expWall[e.exp] += r.wall.Seconds()
	}
	o.digest = digest(bytes.Join(out, nil))
	return o
}

// The paper-suite workload: `rrsim all -quick`, every registered
// experiment except chaos, run through RunExperiment. Its jobs are
// worlds of at most ten flows with a heap about 30 deep, and they are
// skewed (twoway's handful of jobs take half the time), so sweep
// stragglers and per-variant sender cost show here while a deep-heap
// optimisation should leave it unchanged. The suite's inputs are the
// paper's fixed configurations; the seed only shuffles the order the
// experiments run in, and the output is reassembled in canonical order
// for its digest.
func runPaperSuite(b *bench) error {
	order := rand.New(rand.NewSource(b.cfg.seed)).Perm(len(paperSuite()))
	b.note("input: rrsim all -quick, %d experiment runs in seeded order %v", len(order), order)

	var m repMetrics
	perExp := map[string][]float64{}
	err := b.measure(2, tcpProbes, func(t *tracer, measured bool) error {
		runtime.GC()
		peak := startHeapPeak()
		o := runSuite(order, t)
		peakHeap := peak.Stop()
		if o.err == nil && o.digest != recordedPaperSuite {
			o.err = fmt.Errorf("paper-suite JSON digest %s, recorded %s", o.digest, recordedPaperSuite)
		}
		b.op(o.jobs, o.err)
		if !measured || o.wall == 0 {
			return nil
		}
		m.add(repSample{setup: o.setup, wall: o.wall, events: o.events, pkts: o.pkts, allocs: o.allocs,
			jobs: o.jobs, peakHeap: peakHeap, sweep: o.totals}, t != nil)
		for name, w := range o.expWall {
			perExp[name] = append(perExp[name], w)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.report(b)
	if b.cfg.trace {
		for name, ws := range perExp {
			b.layer["experiments."+name+".wall_s"] = median(ws)
		}
	}
	return nil
}

// chaosSchedules is the chaos sweep's size: schedules times the nine
// variants is its job count.
func chaosSchedules(tiny bool) int {
	if tiny {
		return 10
	}
	return 200
}

// chaosOutcome is one chaos sweep and its output digest.
type chaosOutcome struct {
	experimentRun
	violations int
	digest     string
	err        error
}

func runChaos(seed int64, schedules int, tr *tracer) chaosOutcome {
	root := tr.begin("chaos-sweep", 0)
	defer tr.end(root)
	var o chaosOutcome
	o.experimentRun, o.err = runExperiment("chaos", rrtcp.ExperimentOptions{Runs: schedules, Seed: seed}, tr, root)
	if o.err != nil {
		return o
	}
	res, ok := o.res.(*rrtcp.ChaosResult)
	if !ok {
		o.err = fmt.Errorf("chaos returned %T", o.res)
		return o
	}
	o.violations = res.Violated()
	var out []byte
	out, o.err = encodeJSON(res)
	o.digest = digest(out)
	return o
}

// The chaos-sweep workload: a chaos sweep of fixed size on a seed from
// inputSeeds (200 schedules x 9 variants = 1800 jobs). Many uniform
// jobs of about a millisecond make dispatch and ordered merge the cost,
// and internal/faults plus the invariant checker run on every sender
// event.
func runChaosSweep(b *bench) error {
	seed := inputSeed(b.cfg.seed)
	schedules := chaosSchedules(b.cfg.tiny)
	records := recordedChaos
	if b.cfg.tiny {
		records = recordedChaosTiny
	}
	want, ok := records[seed]
	if !ok {
		return fmt.Errorf("no recorded chaos values for input seed %d", seed)
	}
	b.note("input: chaos, %d schedules x 9 variants, chaos seed %d", schedules, seed)

	var m repMetrics
	violations := 0
	err := b.measure(3, nil, func(t *tracer, measured bool) error {
		runtime.GC()
		peak := startHeapPeak()
		o := runChaos(seed, schedules, t)
		peakHeap := peak.Stop()
		if got := (chaosRecord{o.digest, o.events, o.pkts}); o.err == nil && got != want {
			o.err = fmt.Errorf("chaos seed %d gave %+v, recorded %+v", seed, got, want)
		}
		violations = o.violations
		b.op(o.jobs-o.violations, o.err)
		if o.violations > 0 {
			b.op(o.violations, fmt.Errorf("%d chaos cases violated an invariant", o.violations))
		}
		if measured && o.res != nil {
			var totals sweepTotals
			totals.add(o.sweep)
			m.add(repSample{setup: o.setup, wall: o.wall, events: o.events, pkts: o.pkts, allocs: o.allocs,
				jobs: o.jobs, peakHeap: peakHeap, sweep: totals}, t != nil)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.report(b)
	if b.cfg.trace {
		b.layer["invariant.violations"] = float64(violations)
	}
	return nil
}
