package experiments

import (
	"fmt"
	"time"

	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
	"rrtcp/internal/sweep"
	"rrtcp/internal/workload"
)

// FairShareConfig parameterizes the §2.3 fair-share experiment. The
// paper asserts: "if a fair share is given to each flow at the routers,
// the loss probability of an ACK packet should be much smaller than
// that of a data packet", because a 40-byte ACK stream consumes far
// less than a 1000-byte data stream. We congest the reverse (ACK) path
// with a constant-bit-rate data flow and compare a FIFO drop-tail
// gateway against a deficit-round-robin fair queue.
type FairShareConfig struct {
	// Variant of the measured TCP flow.
	Variant workload.Kind `json:"variant"`
	// TransferPackets is the forward transfer size in packets.
	TransferPackets int `json:"transferPackets"`
	// CBRFraction is the reverse-path background load as a fraction of
	// the reverse bottleneck rate (default 1.25 — overload, so a FIFO
	// gateway must drop a share of everything including ACKs).
	CBRFraction float64 `json:"cbrFraction"`
	// ReverseBuffer is the reverse gateway buffer in packets.
	ReverseBuffer int `json:"reverseBuffer"`
	// Horizon caps each run.
	Horizon sim.Time `json:"horizonNs"`
	// Seed drives the scheduler.
	Seed int64 `json:"seed"`
	// Parallel bounds the sweep worker pool (<= 0: GOMAXPROCS).
	Parallel int `json:"-"`
}

func (c *FairShareConfig) fillDefaults() {
	if c.Variant == 0 {
		c.Variant = workload.RR
	}
	if c.TransferPackets <= 0 {
		c.TransferPackets = 200
	}
	if c.CBRFraction <= 0 {
		c.CBRFraction = 1.25
	}
	if c.ReverseBuffer <= 0 {
		c.ReverseBuffer = 10
	}
	if c.Horizon <= 0 {
		c.Horizon = 300 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// FairShareRow is one gateway discipline's outcome.
type FairShareRow struct {
	Discipline string `json:"discipline"`
	// AckLossRate is the fraction of receiver-generated ACKs that never
	// reached the sender.
	AckLossRate float64 `json:"ackLossRate"`
	// TransferDelay is the forward transfer's completion time.
	TransferDelay sim.Time `json:"transferDelayNs"`
	// Timeouts counts the sender's coarse timeouts.
	Timeouts uint64 `json:"timeouts"`
	// Finished reports completion within the horizon.
	Finished bool `json:"finished"`
}

// FairShareResult compares FIFO and DRR on the reverse path.
type FairShareResult struct {
	Config FairShareConfig `json:"config"`
	Rows   []FairShareRow  `json:"rows"`
}

// FairShare runs the experiment once per gateway discipline.
func FairShare(cfg FairShareConfig) (*FairShareResult, error) {
	res, err := Run(NewFairShareExperiment(cfg), RunOptions{Parallel: cfg.Parallel})
	if err != nil {
		return nil, err
	}
	return res.(*FairShareResult), nil
}

// FairShareExperiment adapts the gateway comparison to the Experiment
// interface: one job per reverse-path discipline.
type FairShareExperiment struct {
	cfg FairShareConfig
}

// NewFairShareExperiment fills defaults and returns the experiment.
func NewFairShareExperiment(cfg FairShareConfig) *FairShareExperiment {
	cfg.fillDefaults()
	return &FairShareExperiment{cfg: cfg}
}

// Name implements Experiment.
func (e *FairShareExperiment) Name() string { return "fairshare" }

// Jobs implements Experiment.
func (e *FairShareExperiment) Jobs() ([]sweep.Job, error) {
	cfg := e.cfg
	var jobs []sweep.Job
	for _, disc := range []string{"fifo", "drr"} {
		jobs = append(jobs, sweep.Job{
			Name: disc,
			Seed: cfg.Seed,
			Run: func(seed int64) (any, error) {
				row, err := fairShareRun(cfg, disc, seed)
				if err != nil {
					return nil, fmt.Errorf("fair share (%s): %w", disc, err)
				}
				return row, nil
			},
		})
	}
	return jobs, nil
}

// Reduce implements Experiment.
func (e *FairShareExperiment) Reduce(results []any) (Renderable, error) {
	rows, err := sweep.Collect[FairShareRow](results)
	if err != nil {
		return nil, err
	}
	return &FairShareResult{Config: e.cfg, Rows: rows}, nil
}

func fairShareRun(cfg FairShareConfig, disc string, seed int64) (FairShareRow, error) {
	sched := sim.NewScheduler(seed)
	dcfg := netem.PaperDropTailConfig(1)
	// Keep the forward path loss-free so the only impairment is the
	// congested ACK path.
	dcfg.ForwardQueue = netem.Must(netem.NewDropTail(100))
	switch disc {
	case "drr":
		dcfg.ReverseQueue = netem.Must(netem.NewDRR(500, cfg.ReverseBuffer))
	default:
		dcfg.ReverseQueue = netem.Must(netem.NewDropTail(cfg.ReverseBuffer))
	}
	d, err := netem.NewDumbbell(sched, dcfg)
	if err != nil {
		return FairShareRow{}, err
	}

	flow, err := workload.Install(sched, d, 0, workload.FlowSpec{
		Kind:   cfg.Variant,
		Bytes:  int64(cfg.TransferPackets) * 1000,
		Window: 18,
	})
	if err != nil {
		return FairShareRow{}, err
	}

	// Background data saturating the reverse bottleneck. Flow ID 1000
	// has no route at R1's demux, so the packets vanish after consuming
	// reverse bandwidth and buffer — pure cross traffic.
	cbr := netem.NewCBR(sched, 1000, cfg.CBRFraction*dcfg.BottleneckBps, 1000, d.ReverseLink())
	if err := cbr.Start(0); err != nil {
		return FairShareRow{}, err
	}

	sched.Run(cfg.Horizon)

	row := FairShareRow{Discipline: disc, Timeouts: uint64(flow.Sender.Timeouts())}
	// Without delayed ACKs the receiver emits exactly one ACK per data
	// segment it processes.
	acksSent := float64(flow.Receiver.Segments)
	acksGot := float64(flow.Sender.Acks())
	if acksSent > 0 {
		row.AckLossRate = 1 - acksGot/acksSent
		if row.AckLossRate < 0 {
			row.AckLossRate = 0
		}
	}
	if delay, ok := flow.Sender.TransferDelay(); ok {
		row.Finished = true
		row.TransferDelay = delay
	}
	return row, nil
}

// Render returns the comparison as a text table.
func (r *FairShareResult) Render() string {
	t := Table{
		Title: fmt.Sprintf("§2.3 fair share: %s transfer with the ACK path saturated by CBR cross-traffic",
			r.Config.Variant),
		Header: []string{"reverse gateway", "ACK loss", "transfer delay", "timeouts"},
	}
	for _, row := range r.Rows {
		delay := "DNF"
		if row.Finished {
			delay = fmt.Sprintf("%.3fs", row.TransferDelay.Seconds())
		}
		t.AddRow(row.Discipline, fmt.Sprintf("%.1f%%", row.AckLossRate*100),
			delay, fmt.Sprintf("%d", row.Timeouts))
	}
	return t.String()
}

// Row returns the outcome for a discipline name.
func (r *FairShareResult) Row(disc string) (FairShareRow, bool) {
	for _, row := range r.Rows {
		if row.Discipline == disc {
			return row, true
		}
	}
	return FairShareRow{}, false
}
