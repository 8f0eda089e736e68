package experiments

import (
	"fmt"
	"time"

	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
	"rrtcp/internal/sweep"
	"rrtcp/internal/workload"
)

// AckLossConfig parameterizes the Section 2.3 robustness scenario: the
// paper argues RR degrades only linearly when ACK losses falsely signal
// further data losses, while New-Reno's ACK-clocked recovery stalls.
// We run the Figure 5 burst-loss transfer with additional uniform ACK
// losses on the reverse path.
type AckLossConfig struct {
	// AckLossRates to sweep.
	AckLossRates []float64 `json:"ackLossRates"`
	// Drops within the data window (as in Figure 5).
	Drops int `json:"drops"`
	// Variants to compare.
	Variants []workload.Kind `json:"variants"`
	// TransferPackets is the flow's limited data, in packets.
	TransferPackets int `json:"transferPackets"`
	// Seeds to average over.
	Seeds []int64 `json:"seeds"`
	// Parallel bounds the sweep worker pool (<= 0: GOMAXPROCS).
	Parallel int `json:"-"`
}

func (c *AckLossConfig) fillDefaults() {
	if len(c.AckLossRates) == 0 {
		c.AckLossRates = []float64{0, 0.05, 0.1, 0.2}
	}
	if c.Drops <= 0 {
		c.Drops = 3
	}
	if len(c.Variants) == 0 {
		c.Variants = []workload.Kind{workload.NewReno, workload.SACK, workload.RR}
	}
	if c.TransferPackets <= 0 {
		c.TransferPackets = 100
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1, 2, 3, 4, 5}
	}
}

// AckLossPoint is one (variant, ACK-loss rate) measurement.
type AckLossPoint struct {
	Variant workload.Kind `json:"variant"`
	// AckLossRate is the reverse-path uniform drop probability.
	AckLossRate float64 `json:"ackLossRate"`
	// MeanDelay is the mean transfer delay across seeds (finished runs).
	MeanDelay sim.Time `json:"meanDelayNs"`
	// MeanTimeouts is the mean coarse-timeout count.
	MeanTimeouts float64 `json:"meanTimeouts"`
	// Completed counts runs that finished within the horizon.
	Completed int `json:"completed"`
	// Runs is the number of seeds attempted.
	Runs int `json:"runs"`
}

// AckLossResult is the full sweep.
type AckLossResult struct {
	Config AckLossConfig  `json:"config"`
	Points []AckLossPoint `json:"points"`
}

// AckLoss runs the ACK-loss robustness sweep.
func AckLoss(cfg AckLossConfig) (*AckLossResult, error) {
	res, err := Run(NewAckLossExperiment(cfg), RunOptions{Parallel: cfg.Parallel})
	if err != nil {
		return nil, err
	}
	return res.(*AckLossResult), nil
}

// AckLossExperiment adapts the ACK-loss sweep to the Experiment
// interface: one job per (variant, ACK-loss rate, seed) cell.
type AckLossExperiment struct {
	cfg AckLossConfig
}

// NewAckLossExperiment fills defaults and returns the experiment.
func NewAckLossExperiment(cfg AckLossConfig) *AckLossExperiment {
	cfg.fillDefaults()
	return &AckLossExperiment{cfg: cfg}
}

// Name implements Experiment.
func (e *AckLossExperiment) Name() string { return "ackloss" }

// ackLossOut is one (variant, rate, seed) run's raw measurement.
type ackLossOut struct {
	Delay    sim.Time
	Timeouts uint64
	Finished bool
}

// Jobs implements Experiment.
func (e *AckLossExperiment) Jobs() ([]sweep.Job, error) {
	cfg := e.cfg
	var jobs []sweep.Job
	for _, kind := range cfg.Variants {
		for _, rate := range cfg.AckLossRates {
			for _, seed := range cfg.Seeds {
				jobs = append(jobs, sweep.Job{
					Name: fmt.Sprintf("%v ackloss=%g seed=%d", kind, rate, seed),
					Seed: seed,
					Run: func(seed int64) (any, error) {
						delay, timeouts, finished, err := ackLossRun(cfg, kind, rate, seed)
						if err != nil {
							return nil, fmt.Errorf("ack loss (%v, %g): %w", kind, rate, err)
						}
						return ackLossOut{Delay: delay, Timeouts: timeouts, Finished: finished}, nil
					},
				})
			}
		}
	}
	return jobs, nil
}

// Reduce implements Experiment.
func (e *AckLossExperiment) Reduce(results []any) (Renderable, error) {
	outs, err := sweep.Collect[ackLossOut](results)
	if err != nil {
		return nil, err
	}
	cfg := e.cfg
	res := &AckLossResult{Config: cfg}
	i := 0
	for _, kind := range cfg.Variants {
		for _, rate := range cfg.AckLossRates {
			pt := AckLossPoint{Variant: kind, AckLossRate: rate, Runs: len(cfg.Seeds)}
			var delaySum sim.Time
			var timeoutSum float64
			for range cfg.Seeds {
				out := outs[i]
				i++
				timeoutSum += float64(out.Timeouts)
				if out.Finished {
					pt.Completed++
					delaySum += out.Delay
				}
			}
			if pt.Completed > 0 {
				pt.MeanDelay = delaySum / sim.Time(pt.Completed)
			}
			pt.MeanTimeouts = timeoutSum / float64(len(cfg.Seeds))
			res.Points = append(res.Points, pt)
		}
	}
	return res, nil
}

func ackLossRun(cfg AckLossConfig, kind workload.Kind, rate float64, seed int64) (sim.Time, uint64, bool, error) {
	sched := sim.NewScheduler(seed)
	dataLoss := netem.NewSeqLoss(nil)
	const mss = int64(1000)
	for i := 0; i < cfg.Drops; i++ {
		dataLoss.Drop(0, (35+int64(i))*mss)
	}
	dcfg := netem.PaperDropTailConfig(1)
	dcfg.ForwardQueue = netem.Must(netem.NewDropTail(100))
	dcfg.Loss = dataLoss
	d, err := netem.NewDumbbell(sched, dcfg)
	if err != nil {
		return 0, 0, false, err
	}
	flow, err := workload.Install(sched, d, 0, workload.FlowSpec{
		Kind:   kind,
		Bytes:  int64(cfg.TransferPackets) * mss,
		Window: 64,
	})
	if err != nil {
		return 0, 0, false, err
	}
	// Interpose the ACK dropper between the receiver and its uplink.
	ackLoss := netem.NewUniformLoss(rate, sched.Rand(), d.ReceiverPort(0))
	ackLoss.DropAcks = true
	flow.Receiver.SetOutput(ackLoss)

	sched.Run(120 * time.Second)
	delay, ok := flow.Sender.TransferDelay()
	return delay, uint64(flow.Sender.Timeouts()), ok, nil
}

// Render returns the sweep as a text table.
func (r *AckLossResult) Render() string {
	t := Table{
		Title:  fmt.Sprintf("Section 2.3: ACK-loss robustness (%d data drops in one window)", r.Config.Drops),
		Header: []string{"variant", "ack loss", "mean delay", "mean timeouts", "completed"},
	}
	for _, pt := range r.Points {
		delay := "DNF"
		if pt.Completed > 0 {
			delay = fmt.Sprintf("%.3fs", pt.MeanDelay.Seconds())
		}
		t.AddRow(pt.Variant.String(), fmt.Sprintf("%.0f%%", pt.AckLossRate*100),
			delay, fmt.Sprintf("%.1f", pt.MeanTimeouts),
			fmt.Sprintf("%d/%d", pt.Completed, pt.Runs))
	}
	return t.String()
}
