// Command perfbench is the repository benchmark: it drives the rrtcp
// simulator through its public facade on four workloads, prints every
// end-to-end metric with its unit (or, with --trace 1, every per-layer
// metric), checks the simulator's outputs against recorded values, and
// ends with one JSON result line. README.md lists the workloads, the
// metrics, and which end-to-end metric each layer metric should move.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload many-flows --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"rrtcp"
)

// config is one benchmark run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // test-sized inputs with their own recorded values
	spansOut string // where a traced run writes its spans
}

// metric is one named figure in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every workload reports with
// --trace 0, in print order; BENCHMARK.json declares the same set.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"events_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
}

// perLayer lists the per-layer metrics every workload reports with
// --trace 1; a metric a workload does not exercise reads 0.
var perLayer = func() []struct{ name, unit string } {
	l := []struct{ name, unit string }{
		{"sim.events", "count"},
		{"sim.heap_highwater", "count"},
		{"sim.allocs_per_event", "count"},
		{"sim.timer_ns.d64", "ns"},
		{"sim.timer_ns.d4096", "ns"},
		{"netem.packets", "count"},
		{"netem.pool_hit_ratio", "ratio"},
		{"netem.fwd_drops", "count"},
		{"netem.queue_ns.droptail", "ns"},
		{"netem.queue_ns.red", "ns"},
		{"netem.queue_ns.drr", "ns"},
		{"tcp.rtx_per_flow", "count"},
		{"tcp.timeouts_per_flow", "count"},
		{"tcp.goodput_ratio", "ratio"},
		{"tcp.recv_ns.inorder", "ns"},
		{"tcp.recv_ns.ooo", "ns"},
	}
	for _, v := range rrtcp.Kinds() {
		l = append(l, struct{ name, unit string }{"tcp.transfer_us." + v.String(), "us"})
	}
	l = append(l, []struct{ name, unit string }{
		{"workload.install_us_per_flow", "us"},
		{"trace.heap_bytes_per_flow", "B"},
		{"telemetry.events", "count"},
		{"telemetry.emit_ns.ndjson", "ns"},
		{"telemetry.emit_ns.flowtable", "ns"},
		{"telemetry.emit_ns.span", "ns"},
		{"telemetry.observe_overhead_x", "x"},
		{"sweep.busy_ratio", "ratio"},
		{"sweep.idle_s", "s"},
		{"sweep.job_ms_p50", "ms"},
		{"sweep.job_ms_p95", "ms"},
	}...)
	for _, name := range suiteNames() {
		l = append(l, struct{ name, unit string }{"experiments." + name + ".wall_s", "s"})
	}
	return append(l, []struct{ name, unit string }{
		{"invariant.violations", "count"},
		{"bench.trace_overhead_x", "x"},
		{"bench.error_ratio", "ratio"},
	}...)
}()

// workloads maps each workload name to its runner.
var workloads = []struct {
	name string
	run  func(*bench) error
}{
	{"many-flows", runManyFlows},
	{"paper-suite", runPaperSuite},
	{"chaos-sweep", runChaosSweep},
	{"observed-fig5", runObservedFig5},
}

// bench accumulates one run's measurements and checks.
type bench struct {
	cfg config
	out io.Writer // human-readable report lines

	e2e   map[string]float64
	layer map[string]float64
	notes []string

	attempted, failed int
	failures          []string
}

// op records an operation covering jobs simulation jobs; a non-nil err
// (an experiment error or an output-check mismatch) counts all of them
// as failed.
func (b *bench) op(jobs int, err error) {
	if err != nil {
		jobs = max(jobs, 1)
	}
	b.attempted += jobs
	if err != nil {
		b.failed += jobs
		if len(b.failures) < 10 {
			b.failures = append(b.failures, err.Error())
		}
	}
}

// note adds a line to the human-readable report.
func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// measure runs a workload's repetitions. A traced run first runs the
// workload's layer probes, whose time comes out of the measurement
// budget. Then unit runs once as a warm-up (checked, not timed) and
// again until the budget is spent, at least minReps more times. In a
// traced run every other repetition gets the tracer, so the difference
// between the two halves is the cost of tracing; the spans are written
// out at the end.
func (b *bench) measure(minReps int, probes func(*bench) error, unit func(t *tracer, measured bool) error) error {
	budget := time.Duration(b.cfg.seconds * float64(time.Second))
	var tr *tracer
	if b.cfg.trace {
		tr = newTracer()
		start := time.Now()
		if probes != nil {
			if err := probes(b); err != nil {
				return err
			}
		}
		budget -= time.Since(start)
	}
	if err := unit(nil, false); err != nil {
		return err
	}
	deadline := time.Now().Add(budget)
	for rep := 1; rep <= minReps || time.Now().Before(deadline); rep++ {
		var t *tracer
		if rep%2 == 1 {
			t = tr
		}
		if err := unit(t, true); err != nil {
			return err
		}
	}
	if tr == nil {
		return nil
	}
	tr.printSelfTimes(b.out)
	if err := tr.writeChrome(b.cfg.spansOut); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(b.out, "# spans written to %s\n", b.cfg.spansOut)
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are made from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measurement time in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
	fs.BoolVar(&cfg.tiny, "tiny", false, "use test-sized inputs")
	fs.StringVar(&cfg.spansOut, "spans-out", "", "span file of a traced run (default .bench_build/spans-<workload>-<seed>.json)")
	record := fs.Bool("record", false, "print the check values the current code produces, in recorded.go's form, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record {
		if err := printRecorded(stdout, cfg.tiny); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = traceFlag == 1
	if cfg.spansOut == "" {
		cfg.spansOut = fmt.Sprintf(".bench_build/spans-%s-%d.json", cfg.workload, cfg.seed)
	}
	res, err := runWorkload(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runWorkload runs one workload and assembles its result; the report
// lines go to out ahead of the result.
func runWorkload(cfg config, out io.Writer) (*result, error) {
	var runner func(*bench) error
	for _, w := range workloads {
		if w.name == cfg.workload {
			runner = w.run
		}
	}
	if runner == nil {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds < 0 {
		return nil, errors.New("--seconds must not be negative")
	}
	b := &bench{cfg: cfg, out: out, e2e: map[string]float64{}, layer: map[string]float64{}}
	env := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "trace": cfg.trace, "tiny": cfg.tiny,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu": cpuModel(), "go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
	envLine, _ := json.Marshal(env) // strings, numbers and bools always encode
	fmt.Fprintf(out, "# env %s\n", envLine)
	if err := runner(b); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if b.attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	res := &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	errorRatio := float64(b.failed) / float64(b.attempted)
	for _, n := range b.notes {
		fmt.Fprintf(out, "# %s\n", n)
	}
	if cfg.trace {
		b.layer["bench.error_ratio"] = errorRatio
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{b.layer[m.name], m.unit}
			fmt.Fprintf(out, "# layer %-32s %16.6g %s\n", m.name, b.layer[m.name], m.unit)
		}
	} else {
		for _, m := range endToEnd {
			v, ok := b.e2e[m.name]
			if !ok || v == 0 {
				return nil, fmt.Errorf("end-to-end metric %s was not measured", m.name)
			}
			res.Metrics[m.name] = metric{v, m.unit}
			fmt.Fprintf(out, "# e2e   %-32s %16.6g %s\n", m.name, v, m.unit)
		}
		fmt.Fprintf(out, "# e2e   %-32s %16.6g %s (%d failed of %d jobs)\n", "error_ratio", errorRatio, "ratio", b.failed, b.attempted)
	}
	for _, f := range b.failures {
		fmt.Fprintf(out, "# FAILED: %s\n", f)
	}
	fmt.Fprintf(out, "# check %s: %d of %d jobs failed\n", map[bool]string{true: "ok", false: "FAILED"}[res.Correct], b.failed, b.attempted)
	return res, nil
}

// repSample is one measured repetition's figures.
type repSample struct {
	setup, wall          time.Duration
	events, pkts, allocs uint64
	jobs                 int
	peakHeap             uint64
	sweep                sweepTotals
}

// repMetrics collects the measured repetitions of a run.
type repMetrics struct {
	setups, walls, eps, jps, heap []float64
	tracedWalls, untracedWalls    []float64
	events, pkts, allocs          uint64 // of the last repetition; they repeat exactly
	jobMs, busyRatio, idle        []float64
}

func (m *repMetrics) add(r repSample, traced bool) {
	m.setups = append(m.setups, r.setup.Seconds())
	m.walls = append(m.walls, r.wall.Seconds())
	m.eps = append(m.eps, float64(r.events)/r.wall.Seconds())
	m.jps = append(m.jps, float64(r.jobs)/r.wall.Seconds())
	m.heap = append(m.heap, float64(r.peakHeap)/1e6)
	m.events, m.pkts, m.allocs = r.events, r.pkts, r.allocs
	if traced {
		m.tracedWalls = append(m.tracedWalls, r.wall.Seconds())
	} else {
		m.untracedWalls = append(m.untracedWalls, r.wall.Seconds())
	}
	if t := r.sweep; t.workers > 0 && t.wall > 0 {
		m.busyRatio = append(m.busyRatio, t.busy/(t.wall*float64(t.workers)))
		m.idle = append(m.idle, t.wall*float64(t.workers)-t.busy)
		m.jobMs = append(m.jobMs, t.jobMs...)
	}
}

// report sets the end-to-end metrics, and in a traced run the engine,
// sweep and tracing-cost layer metrics, from the measured repetitions.
func (m *repMetrics) report(b *bench) {
	b.e2e["setup_s"] = median(m.setups)
	b.e2e["wall_s"] = median(m.walls)
	b.e2e["events_per_s"] = median(m.eps)
	b.e2e["jobs_per_s"] = median(m.jps)
	b.e2e["peak_heap_mb"] = median(m.heap)
	w := m.walls
	b.note("wall_s over %d repetitions: min %.6g q1 %.6g median %.6g q3 %.6g max %.6g", len(w),
		quantile(w, 0), quantile(w, 0.25), quantile(w, 0.5), quantile(w, 0.75), quantile(w, 1))
	p50, p95 := quantile(m.jobMs, 0.5), quantile(m.jobMs, 0.95)
	if len(m.jobMs) > 0 {
		b.note("job_ms_p50 %.3f ms, job_ms_p95 %.3f ms over %d sweep jobs", p50, p95, len(m.jobMs))
	} else {
		b.note("one job per repetition: job_ms_p50 %.3f ms over %d jobs, too few for a p95", median(m.walls)*1e3, len(m.walls))
	}
	if !b.cfg.trace {
		return
	}
	b.layer["sim.events"] = float64(m.events)
	b.layer["netem.packets"] = float64(m.pkts)
	b.layer["sim.allocs_per_event"] = ratio(float64(m.allocs), float64(m.events))
	b.layer["sweep.busy_ratio"] = median(m.busyRatio)
	b.layer["sweep.idle_s"] = median(m.idle)
	b.layer["sweep.job_ms_p50"] = p50
	b.layer["sweep.job_ms_p95"] = p95
	b.layer["bench.trace_overhead_x"] = ratio(median(m.tracedWalls), median(m.untracedWalls))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuModel reads the processor name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
