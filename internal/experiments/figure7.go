package experiments

import (
	"fmt"
	"time"

	"rrtcp/internal/model"
	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
	"rrtcp/internal/sweep"
	"rrtcp/internal/tcp"
	"rrtcp/internal/workload"
)

// Figure7Config parameterizes the square-root-model fitness experiment
// (paper §4, Figure 7): a single long-lived flow suffers uniform random
// losses at gateway R1 while MSS and RTT are held fixed, and the
// measured window BW·RTT/MSS is compared against the Mathis bound
// C/sqrt(p).
type Figure7Config struct {
	// LossRates to sweep (paper: 0.001 … 0.1).
	LossRates []float64 `json:"lossRates"`
	// Variants to compare (paper: SACK and RR).
	Variants []workload.Kind `json:"variants"`
	// Duration of each run (paper: 100 s).
	Duration sim.Time `json:"durationNs"`
	// WarmUp excluded from measurement ("its start-up phase is ignored").
	WarmUp sim.Time `json:"warmUpNs"`
	// Seeds to average over; more seeds smooth the random-loss noise.
	Seeds []int64 `json:"seeds"`
	// RTT is the fixed two-way propagation delay (paper: 200 ms).
	RTT sim.Time `json:"rttNs"`
	// DelayedAck runs the receivers with RFC 1122 delayed ACKs, in
	// which case the model constant becomes C = sqrt(3/4) (extension;
	// the paper's receivers ACK every packet, C = sqrt(3/2)).
	DelayedAck bool `json:"delayedAck"`
	// Parallel bounds the sweep worker pool (<= 0: GOMAXPROCS).
	Parallel int `json:"-"`
}

func (c *Figure7Config) fillDefaults() {
	if len(c.LossRates) == 0 {
		c.LossRates = []float64{0.001, 0.003, 0.005, 0.01, 0.02, 0.03, 0.05, 0.07, 0.1}
	}
	if len(c.Variants) == 0 {
		c.Variants = []workload.Kind{workload.SACK, workload.RR}
	}
	if c.Duration <= 0 {
		c.Duration = 100 * time.Second
	}
	if c.WarmUp <= 0 {
		c.WarmUp = 10 * time.Second
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1, 2, 3}
	}
	if c.RTT <= 0 {
		c.RTT = 200 * time.Millisecond
	}
}

// Figure7Point is one (variant, loss rate) measurement.
type Figure7Point struct {
	Variant workload.Kind `json:"variant"`
	// LossRate is the configured uniform drop probability p.
	LossRate float64 `json:"lossRate"`
	// Window is the measured BW·RTT/MSS in packets, averaged over seeds.
	Window float64 `json:"window"`
	// ModelWindow is the Mathis bound C/sqrt(p) with C = sqrt(3/2).
	ModelWindow float64 `json:"modelWindow"`
	// PadhyeWindow is the timeout-aware Padhye et al. prediction, which
	// the paper cites as the more accurate refinement (§4).
	PadhyeWindow float64 `json:"padhyeWindow"`
	// Timeouts is the mean coarse-timeout count per run, explaining the
	// departure from the model at high p.
	Timeouts float64 `json:"timeouts"`
}

// Figure7Result is the full sweep.
type Figure7Result struct {
	Config Figure7Config  `json:"config"`
	Points []Figure7Point `json:"points"`
}

// Figure7 runs the model-fitness sweep. The topology keeps the
// bottleneck uncongested (10 Mbps, deep buffer) so that the injected
// uniform losses are the only loss process and the RTT stays pinned at
// the configured value, as the model assumes.
func Figure7(cfg Figure7Config) (*Figure7Result, error) {
	res, err := Run(NewFigure7Experiment(cfg), RunOptions{Parallel: cfg.Parallel})
	if err != nil {
		return nil, err
	}
	return res.(*Figure7Result), nil
}

// Figure7Experiment adapts the model-fitness sweep to the Experiment
// interface: one job per (variant, loss rate, seed) cell.
type Figure7Experiment struct {
	cfg Figure7Config
}

// NewFigure7Experiment fills defaults and returns the experiment.
func NewFigure7Experiment(cfg Figure7Config) *Figure7Experiment {
	cfg.fillDefaults()
	return &Figure7Experiment{cfg: cfg}
}

// Name implements Experiment.
func (e *Figure7Experiment) Name() string { return "fig7" }

// figure7Out is one (variant, rate, seed) run's raw measurement.
type figure7Out struct {
	Window   float64
	Timeouts uint64
}

// Jobs implements Experiment.
func (e *Figure7Experiment) Jobs() ([]sweep.Job, error) {
	cfg := e.cfg
	var jobs []sweep.Job
	for _, kind := range cfg.Variants {
		for _, p := range cfg.LossRates {
			for _, seed := range cfg.Seeds {
				jobs = append(jobs, sweep.Job{
					Name: fmt.Sprintf("%v p=%g seed=%d", kind, p, seed),
					Seed: seed,
					Run: func(seed int64) (any, error) {
						w, to, err := figure7Run(cfg, kind, p, seed)
						if err != nil {
							return nil, fmt.Errorf("figure 7 (%v, p=%g): %w", kind, p, err)
						}
						return figure7Out{Window: w, Timeouts: to}, nil
					},
				})
			}
		}
	}
	return jobs, nil
}

// Reduce implements Experiment: it averages the per-seed measurements
// into one point per (variant, loss rate) cell, walking the results in
// the same nested order Jobs emitted them.
func (e *Figure7Experiment) Reduce(results []any) (Renderable, error) {
	outs, err := sweep.Collect[figure7Out](results)
	if err != nil {
		return nil, err
	}
	cfg := e.cfg
	c := model.CAckEveryPacket
	ackPerPacket := 1
	if cfg.DelayedAck {
		c = model.CDelayedAck
		ackPerPacket = 2
	}
	res := &Figure7Result{Config: cfg}
	i := 0
	for _, kind := range cfg.Variants {
		for _, p := range cfg.LossRates {
			var windowSum, timeoutSum float64
			for range cfg.Seeds {
				windowSum += outs[i].Window
				timeoutSum += float64(outs[i].Timeouts)
				i++
			}
			n := float64(len(cfg.Seeds))
			res.Points = append(res.Points, Figure7Point{
				Variant:      kind,
				LossRate:     p,
				Window:       windowSum / n,
				ModelWindow:  model.SqrtWindow(p, c),
				PadhyeWindow: model.PadhyeWindow(cfg.RTT.Seconds(), 1.0, p, ackPerPacket),
				Timeouts:     timeoutSum / n,
			})
		}
	}
	return res, nil
}

func figure7Run(cfg Figure7Config, kind workload.Kind, p float64, seed int64) (float64, uint64, error) {
	sched := sim.NewScheduler(seed)
	loss := netem.NewUniformLoss(p, sched.Rand(), nil)

	// Side links contribute 2 ms per direction; the bottleneck carries
	// the rest of the fixed RTT.
	sideDelay := 1 * time.Millisecond
	bottleneckDelay := cfg.RTT/2 - 2*sideDelay
	dcfg := netem.DumbbellConfig{
		Flows:           1,
		BottleneckBps:   10e6,
		BottleneckDelay: bottleneckDelay,
		SideBps:         100e6,
		SideDelay:       sideDelay,
		ForwardQueue:    netem.Must(netem.NewDropTail(1000)),
		Loss:            loss,
	}
	d, err := netem.NewDumbbell(sched, dcfg)
	if err != nil {
		return 0, 0, err
	}
	flow, err := workload.Install(sched, d, 0, workload.FlowSpec{
		Kind:  kind,
		Bytes: tcp.Infinite,
		// Large enough that the advertised window never binds: the
		// injected loss process must be the only throughput constraint,
		// as the model assumes.
		Window:     128,
		DelayedAck: cfg.DelayedAck,
	})
	if err != nil {
		return 0, 0, err
	}

	before, by := runAcked(sched, flow.Sender, cfg.WarmUp, cfg.Duration)
	bw := goodputBps(by-before, cfg.WarmUp, cfg.Duration)
	window := bw * cfg.RTT.Seconds() / float64(tcp.DefaultMSS*8)
	return window, uint64(flow.Sender.Timeouts()), nil
}

// Render returns the sweep as a table of measured vs model windows.
func (r *Figure7Result) Render() string {
	t := Table{
		Title:  "Figure 7: fitness to the square-root model (window = BW*RTT/MSS, packets)",
		Header: []string{"p", "model C/sqrt(p)", "padhye"},
	}
	// One column per variant, plus timeouts.
	for _, k := range r.Config.Variants {
		t.Header = append(t.Header, k.String(), k.String()+" timeouts")
	}
	for _, p := range r.Config.LossRates {
		row := []string{fmt.Sprintf("%.3f", p), "", ""}
		for _, k := range r.Config.Variants {
			for _, pt := range r.Points {
				if pt.Variant == k && pt.LossRate == p {
					if row[1] == "" {
						row[1] = fmt.Sprintf("%.1f", pt.ModelWindow)
						row[2] = fmt.Sprintf("%.1f", pt.PadhyeWindow)
					}
					row = append(row, fmt.Sprintf("%.1f", pt.Window),
						fmt.Sprintf("%.1f", pt.Timeouts))
				}
			}
		}
		t.AddRow(row...)
	}
	return t.String()
}

// Point returns the measurement for (variant, p), if present.
func (r *Figure7Result) Point(kind workload.Kind, p float64) (Figure7Point, bool) {
	for _, pt := range r.Points {
		if pt.Variant == kind && pt.LossRate == p {
			return pt, true
		}
	}
	return Figure7Point{}, false
}
