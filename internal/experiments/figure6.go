package experiments

import (
	"fmt"
	"strings"
	"time"

	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
	"rrtcp/internal/sweep"
	"rrtcp/internal/tcp"
	"rrtcp/internal/telemetry"
	"rrtcp/internal/workload"
)

// Figure6Config parameterizes the RED-gateway experiment (paper §3.3,
// Table 4, Figure 6): ten flows of the same variant share a RED
// bottleneck under heavy congestion and the first flow's sequence-
// number trace is plotted.
type Figure6Config struct {
	// Variants to compare; defaults to the paper's three panels
	// (New-Reno, SACK, RR).
	Variants []workload.Kind `json:"variants"`
	// Flows sharing the bottleneck (paper: 10).
	Flows int `json:"flows"`
	// Duration of the simulation (paper: 6 s).
	Duration sim.Time `json:"durationNs"`
	// Seed for RED's random drops in the run whose trace is plotted.
	Seed int64 `json:"seed"`
	// Seeds, when longer than one entry, are averaged over for the
	// throughput columns (the trace still comes from Seed). RED's
	// random drops make any single 6-second window noisy.
	Seeds []int64 `json:"seeds"`
	// RED overrides the Table 4 gateway parameters when non-nil.
	RED *netem.REDConfig `json:"red,omitempty"`
	// Parallel bounds the sweep worker pool (<= 0: GOMAXPROCS).
	Parallel int `json:"-"`
}

func (c *Figure6Config) fillDefaults() {
	if len(c.Variants) == 0 {
		c.Variants = []workload.Kind{workload.NewReno, workload.SACK, workload.RR}
	}
	if c.Flows <= 0 {
		c.Flows = 10
	}
	if c.Duration <= 0 {
		c.Duration = 6 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{c.Seed, 43, 44, 45, 46, 47, 48, 49}
	}
}

// Figure6Panel is the outcome for one variant: the first flow's
// sequence trace and throughput, plus aggregate statistics.
type Figure6Panel struct {
	Variant workload.Kind `json:"variant"`
	// Flow0Seq is the (time, packet number) send/retransmit series of
	// the first flow — the paper's sequence plot.
	Flow0Seq []Point `json:"flow0Seq"`
	// Flow0GoodputBps is the first flow's effective throughput over
	// the run.
	Flow0GoodputBps float64 `json:"flow0GoodputBps"`
	// Flow0Packets is the highest packet number the first flow had
	// acknowledged by the end of the run.
	Flow0Packets int64 `json:"flow0Packets"`
	// Flow0Timeouts is the first flow's mean coarse-timeout count.
	Flow0Timeouts float64 `json:"flow0Timeouts"`
	// AggregateGoodputBps sums goodput across all flows.
	AggregateGoodputBps float64 `json:"aggregateGoodputBps"`
	// REDEarlyDrops / REDForcedDrops report gateway drop behaviour.
	REDEarlyDrops  uint64 `json:"redEarlyDrops"`
	REDForcedDrops uint64 `json:"redForcedDrops"`
	// BottleneckUtilization is the mean fraction of the bottleneck's
	// capacity in use — the paper claims RR keeps it highest by probing
	// the new equilibrium while recovering.
	BottleneckUtilization float64 `json:"bottleneckUtilization"`
}

// Figure6Result holds all panels.
type Figure6Result struct {
	Config Figure6Config  `json:"config"`
	Panels []Figure6Panel `json:"panels"`
}

// Figure6 runs the RED scenario once per variant and seed. All flows
// in one run use the same recovery scheme, as in the paper. The first
// five flows start at t=0 and a new flow starts every 0.5 s afterwards;
// all flows have infinite data. Throughput columns are means across
// seeds; the sequence plot comes from the primary seed.
func Figure6(cfg Figure6Config) (*Figure6Result, error) {
	res, err := Run(NewFigure6Experiment(cfg), RunOptions{Parallel: cfg.Parallel})
	if err != nil {
		return nil, err
	}
	return res.(*Figure6Result), nil
}

// Figure6Experiment adapts the RED scenario to the Experiment
// interface: one job per (variant, seed) run.
type Figure6Experiment struct {
	cfg Figure6Config
}

// NewFigure6Experiment fills defaults and returns the experiment.
func NewFigure6Experiment(cfg Figure6Config) *Figure6Experiment {
	cfg.fillDefaults()
	return &Figure6Experiment{cfg: cfg}
}

// Name implements Experiment.
func (e *Figure6Experiment) Name() string { return "fig6" }

// Jobs implements Experiment.
func (e *Figure6Experiment) Jobs() ([]sweep.Job, error) {
	cfg := e.cfg
	var jobs []sweep.Job
	for _, kind := range cfg.Variants {
		for _, seed := range cfg.Seeds {
			jobs = append(jobs, sweep.Job{
				Name: fmt.Sprintf("%v seed=%d", kind, seed),
				Seed: seed,
				Run: func(seed int64) (any, error) {
					panel, err := figure6Run(cfg, kind, seed)
					if err != nil {
						return nil, fmt.Errorf("figure 6 (%v): %w", kind, err)
					}
					return panel, nil
				},
			})
		}
	}
	return jobs, nil
}

// Reduce implements Experiment: throughput columns average across the
// seeds; the sequence plot comes from the primary seed's run.
func (e *Figure6Experiment) Reduce(results []any) (Renderable, error) {
	panels, err := sweep.Collect[Figure6Panel](results)
	if err != nil {
		return nil, err
	}
	cfg := e.cfg
	res := &Figure6Result{Config: cfg}
	i := 0
	for range cfg.Variants {
		var agg Figure6Panel
		for si, seed := range cfg.Seeds {
			panel := panels[i]
			i++
			if seed == cfg.Seed || (si == 0 && agg.Flow0Seq == nil) {
				agg.Flow0Seq = panel.Flow0Seq
			}
			agg.Variant = panel.Variant
			agg.Flow0GoodputBps += panel.Flow0GoodputBps
			agg.Flow0Packets += panel.Flow0Packets
			agg.Flow0Timeouts += panel.Flow0Timeouts
			agg.AggregateGoodputBps += panel.AggregateGoodputBps
			agg.REDEarlyDrops += panel.REDEarlyDrops
			agg.REDForcedDrops += panel.REDForcedDrops
			agg.BottleneckUtilization += panel.BottleneckUtilization
		}
		n := int64(len(cfg.Seeds))
		agg.Flow0GoodputBps /= float64(n)
		agg.Flow0Packets /= n
		agg.Flow0Timeouts /= float64(n)
		agg.AggregateGoodputBps /= float64(n)
		agg.REDEarlyDrops /= uint64(n)
		agg.REDForcedDrops /= uint64(n)
		agg.BottleneckUtilization /= float64(n)
		res.Panels = append(res.Panels, agg)
	}
	return res, nil
}

func figure6Run(cfg Figure6Config, kind workload.Kind, seed int64) (Figure6Panel, error) {
	sched := sim.NewScheduler(seed)
	redCfg := netem.PaperREDConfig()
	if cfg.RED != nil {
		redCfg = *cfg.RED
	}
	red := netem.Must(netem.NewRED(redCfg, sched.Rand()))

	dcfg := netem.PaperDropTailConfig(cfg.Flows)
	dcfg.ForwardQueue = red
	d, err := netem.NewDumbbell(sched, dcfg)
	if err != nil {
		return Figure6Panel{}, err
	}

	specs := make([]workload.FlowSpec, cfg.Flows)
	for i := range specs {
		start := sim.Time(0)
		// The first five flows start at time 0; then one every 0.5 s.
		if i >= 5 {
			start = time.Duration(i-4) * 500 * time.Millisecond
		}
		specs[i] = workload.FlowSpec{
			Kind:    kind,
			StartAt: start,
			Bytes:   tcp.Infinite,
			Window:  30,
		}
	}
	// Only the first flow is plotted, so only it publishes events.
	plot := &seqPlot{}
	specs[0].Telemetry = telemetry.NewBus(plot)
	flows, err := workload.InstallAll(sched, d, specs)
	if err != nil {
		return Figure6Panel{}, err
	}

	// Sample bottleneck utilization every 100 ms: bits forwarded per
	// interval over the link capacity. The first tick only primes the
	// counter, so it contributes a zero interval to the mean.
	const sampleEvery = 100 * time.Millisecond
	link := d.ForwardLink()
	var ticks int
	var firstTx, lastTx uint64
	var util *sim.Timer
	util = sched.NewTimer(func() {
		if ticks == 0 {
			firstTx = link.TxBytes
		}
		lastTx = link.TxBytes
		ticks++
		util.Reset(sampleEvery)
	})
	if err := util.At(sched.Now() + sampleEvery); err != nil {
		return Figure6Panel{}, err
	}

	sched.Run(cfg.Duration)

	panel := Figure6Panel{
		Variant:        kind,
		Flow0Seq:       plot.pts,
		Flow0Timeouts:  float64(flows[0].Sender.Timeouts()),
		REDEarlyDrops:  red.EarlyDrops,
		REDForcedDrops: red.ForcedDrops,
	}
	panel.Flow0GoodputBps = goodputBps(flows[0].Sender.SndUna(), 0, cfg.Duration)
	panel.Flow0Packets = flows[0].Sender.SndUna() / int64(tcp.DefaultMSS)
	for _, f := range flows {
		panel.AggregateGoodputBps += goodputBps(f.Sender.SndUna(), 0, cfg.Duration)
	}
	if ticks > 0 {
		meanBits := float64(lastTx-firstTx) * 8 / float64(ticks)
		panel.BottleneckUtilization = meanBits / (dcfg.BottleneckBps * sampleEvery.Seconds())
	}
	return panel, nil
}

// seqPlot collects a flow's (time, packet number) points for its send
// and retransmit events — the standard TCP sequence plot of Figure 6.
type seqPlot struct {
	pts []Point
}

// Emit implements telemetry.Sink.
func (p *seqPlot) Emit(ev telemetry.Event) {
	if ev.Kind == telemetry.KSend || ev.Kind == telemetry.KRetransmit {
		p.pts = append(p.pts, Point{X: ev.At.Seconds(), Y: float64(ev.Seq) / float64(tcp.DefaultMSS)})
	}
}

// Point is an (x, y) pair for plotted series.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// renderASCII draws a crude scatter plot of the points — enough to eyeball
// the Figure 6 shapes in a terminal. Width and height are in cells.
func renderASCII(pts []Point, width, height int) string {
	if len(pts) == 0 || width < 2 || height < 2 {
		return "(no data)\n"
	}
	minX, maxX := pts[0].X, pts[0].X
	minY, maxY := pts[0].Y, pts[0].Y
	for _, p := range pts {
		minX, maxX = min(minX, p.X), max(maxX, p.X)
		minY, maxY = min(minY, p.Y), max(maxY, p.Y)
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for _, p := range pts {
		x := int((p.X - minX) / (maxX - minX) * float64(width-1))
		y := int((p.Y - minY) / (maxY - minY) * float64(height-1))
		grid[height-1-y][x] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "y: %.1f..%.1f  x: %.2fs..%.2fs\n", minY, maxY, minX, maxX)
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	return b.String()
}

// Render returns the panels as a summary table followed by ASCII
// sequence plots.
func (r *Figure6Result) Render() string {
	t := Table{
		Title: fmt.Sprintf("Figure 6: first flow under RED gateways (%d flows, %.1fs)",
			r.Config.Flows, r.Config.Duration.Seconds()),
		Header: []string{"variant", "flow1 goodput", "flow1 pkts acked", "flow1 timeouts",
			"aggregate", "utilization", "RED early/forced drops"},
	}
	for _, p := range r.Panels {
		t.AddRow(p.Variant.String(), kbps(p.Flow0GoodputBps),
			fmt.Sprintf("%d", p.Flow0Packets),
			fmt.Sprintf("%.1f", p.Flow0Timeouts),
			kbps(p.AggregateGoodputBps),
			fmt.Sprintf("%.1f%%", p.BottleneckUtilization*100),
			fmt.Sprintf("%d/%d", p.REDEarlyDrops, p.REDForcedDrops))
	}
	out := t.String()
	for _, p := range r.Panels {
		out += fmt.Sprintf("\nsequence plot (%s): packets sent vs time\n%s",
			p.Variant, renderASCII(p.Flow0Seq, 72, 18))
	}
	return out
}

// Panel returns the panel for a variant, if present.
func (r *Figure6Result) Panel(kind workload.Kind) (Figure6Panel, bool) {
	for _, p := range r.Panels {
		if p.Variant == kind {
			return p, true
		}
	}
	return Figure6Panel{}, false
}
