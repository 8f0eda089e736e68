package experiments

import (
	"fmt"
	"time"

	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
	"rrtcp/internal/sweep"
	"rrtcp/internal/tcp"
	"rrtcp/internal/workload"
)

// BurstyConfig parameterizes the correlated-loss sweep. The paper's
// motivation is that Internet losses arrive in bursts (its [18]); this
// experiment holds the mean loss rate fixed and sweeps the mean burst
// length with a Gilbert-Elliott channel, exposing how each recovery
// scheme degrades as the same number of losses clump together — the
// regime RR was designed for.
type BurstyConfig struct {
	// MeanLossRate is the stationary drop probability (default 0.02).
	MeanLossRate float64 `json:"meanLossRate"`
	// BurstLengths to sweep (mean packets per loss burst).
	BurstLengths []float64 `json:"burstLengths"`
	// Variants to compare.
	Variants []workload.Kind `json:"variants"`
	// Duration of each run.
	Duration sim.Time `json:"durationNs"`
	// Seeds to average over.
	Seeds []int64 `json:"seeds"`
	// Parallel bounds the sweep worker pool (<= 0: GOMAXPROCS).
	Parallel int `json:"-"`
}

func (c *BurstyConfig) fillDefaults() {
	if c.MeanLossRate <= 0 {
		c.MeanLossRate = 0.02
	}
	if len(c.BurstLengths) == 0 {
		c.BurstLengths = []float64{1, 2, 4, 8}
	}
	if len(c.Variants) == 0 {
		c.Variants = []workload.Kind{workload.NewReno, workload.SACK, workload.RR}
	}
	if c.Duration <= 0 {
		c.Duration = 60 * time.Second
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1, 2, 3, 4}
	}
}

// BurstyPoint is one (variant, burst length) measurement.
type BurstyPoint struct {
	Variant workload.Kind `json:"variant"`
	// BurstLength is the configured mean loss-burst length in packets.
	BurstLength float64 `json:"burstLength"`
	// GoodputBps is the mean steady-state goodput.
	GoodputBps float64 `json:"goodputBps"`
	// Timeouts is the mean coarse-timeout count per run.
	Timeouts float64 `json:"timeouts"`
}

// BurstyResult is the full sweep.
type BurstyResult struct {
	Config BurstyConfig  `json:"config"`
	Points []BurstyPoint `json:"points"`
}

// Bursty runs the sweep on the Figure 7 fixed-RTT topology so goodput
// differences come only from the loss process and the recovery scheme.
func Bursty(cfg BurstyConfig) (*BurstyResult, error) {
	res, err := Run(NewBurstyExperiment(cfg), RunOptions{Parallel: cfg.Parallel})
	if err != nil {
		return nil, err
	}
	return res.(*BurstyResult), nil
}

// BurstyExperiment adapts the correlated-loss sweep to the Experiment
// interface: one job per (variant, burst length, seed) cell.
type BurstyExperiment struct {
	cfg BurstyConfig
}

// NewBurstyExperiment fills defaults and returns the experiment.
func NewBurstyExperiment(cfg BurstyConfig) *BurstyExperiment {
	cfg.fillDefaults()
	return &BurstyExperiment{cfg: cfg}
}

// Name implements Experiment.
func (e *BurstyExperiment) Name() string { return "bursty" }

// burstyOut is one (variant, burst, seed) run's raw measurement.
type burstyOut struct {
	GoodputBps float64
	Timeouts   uint64
}

// Jobs implements Experiment.
func (e *BurstyExperiment) Jobs() ([]sweep.Job, error) {
	cfg := e.cfg
	var jobs []sweep.Job
	for _, kind := range cfg.Variants {
		for _, burst := range cfg.BurstLengths {
			for _, seed := range cfg.Seeds {
				jobs = append(jobs, sweep.Job{
					Name: fmt.Sprintf("%v L=%g seed=%d", kind, burst, seed),
					Seed: seed,
					Run: func(seed int64) (any, error) {
						gp, to, err := burstyRun(cfg, kind, burst, seed)
						if err != nil {
							return nil, fmt.Errorf("bursty (%v, L=%g): %w", kind, burst, err)
						}
						return burstyOut{GoodputBps: gp, Timeouts: to}, nil
					},
				})
			}
		}
	}
	return jobs, nil
}

// Reduce implements Experiment.
func (e *BurstyExperiment) Reduce(results []any) (Renderable, error) {
	outs, err := sweep.Collect[burstyOut](results)
	if err != nil {
		return nil, err
	}
	cfg := e.cfg
	res := &BurstyResult{Config: cfg}
	i := 0
	for _, kind := range cfg.Variants {
		for _, burst := range cfg.BurstLengths {
			var goodputSum, timeoutSum float64
			for range cfg.Seeds {
				goodputSum += outs[i].GoodputBps
				timeoutSum += float64(outs[i].Timeouts)
				i++
			}
			n := float64(len(cfg.Seeds))
			res.Points = append(res.Points, BurstyPoint{
				Variant:     kind,
				BurstLength: burst,
				GoodputBps:  goodputSum / n,
				Timeouts:    timeoutSum / n,
			})
		}
	}
	return res, nil
}

func burstyRun(cfg BurstyConfig, kind workload.Kind, burst float64, seed int64) (float64, uint64, error) {
	sched := sim.NewScheduler(seed)
	// Gilbert parameters for mean rate r and mean burst length L (with
	// PDropBad = 1): PBadToGood = 1/L, PGoodToBad = r/(L·(1−r)).
	r := cfg.MeanLossRate
	pB2G := 1 / burst
	pG2B := r * pB2G / (1 - r)
	loss := netem.NewGilbertLoss(pG2B, pB2G, 1.0, sched.Rand(), nil)

	sideDelay := 1 * time.Millisecond
	dcfg := netem.DumbbellConfig{
		Flows:           1,
		BottleneckBps:   10e6,
		BottleneckDelay: 98 * time.Millisecond,
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
		Kind:   kind,
		Bytes:  tcp.Infinite,
		Window: 64,
	})
	if err != nil {
		return 0, 0, err
	}
	before, by := runAcked(sched, flow.Sender, 5*time.Second, cfg.Duration)
	return goodputBps(by-before, 5*time.Second, cfg.Duration), uint64(flow.Sender.Timeouts()), nil
}

// Render returns the sweep as a table: one row per burst length, one
// goodput column per variant.
func (r *BurstyResult) Render() string {
	t := Table{
		Title: fmt.Sprintf("Bursty (Gilbert) loss at fixed mean rate %.1f%%: goodput vs burst length",
			r.Config.MeanLossRate*100),
		Header: []string{"burst len"},
	}
	for _, k := range r.Config.Variants {
		t.Header = append(t.Header, k.String(), k.String()+" TOs")
	}
	for _, burst := range r.Config.BurstLengths {
		row := []string{fmt.Sprintf("%.0f", burst)}
		for _, k := range r.Config.Variants {
			for _, pt := range r.Points {
				if pt.Variant == k && pt.BurstLength == burst {
					row = append(row, kbps(pt.GoodputBps), fmt.Sprintf("%.1f", pt.Timeouts))
				}
			}
		}
		t.AddRow(row...)
	}
	return t.String()
}

// Point returns the measurement for (variant, burst length).
func (r *BurstyResult) Point(kind workload.Kind, burst float64) (BurstyPoint, bool) {
	for _, pt := range r.Points {
		if pt.Variant == kind && pt.BurstLength == burst {
			return pt, true
		}
	}
	return BurstyPoint{}, false
}
