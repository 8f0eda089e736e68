package experiments

import (
	"fmt"
	"time"

	"rrtcp/internal/core"
	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
	"rrtcp/internal/sweep"
	"rrtcp/internal/telemetry"
	"rrtcp/internal/workload"
)

// AblationVariant names one RR design choice toggled off or replaced.
type AblationVariant struct {
	Label   string       `json:"label"`
	Options core.Options `json:"options"`
}

// AblationVariants returns the design-choice matrix DESIGN.md §5 calls
// out, with the published algorithm first.
func AblationVariants() []AblationVariant {
	return []AblationVariant{
		{Label: "rr (published)", Options: core.Options{}},
		{Label: "retreat 1-per-dup (right-edge)", Options: core.Options{RetreatDupsPerSegment: 1}},
		{Label: "no further-loss detection", Options: core.Options{DisableFurtherLossDetection: true}},
		{Label: "halve on further loss", Options: core.Options{HalveOnFurtherLoss: true}},
		{Label: "exit to ssthresh (big ACK)", Options: core.Options{ExitToSsthresh: true}},
	}
}

// AblationRow is one variant's outcome on the burst-loss transfer.
type AblationRow struct {
	Variant AblationVariant `json:"variant"`
	// TransferDelay for the Figure-5-style limited transfer.
	TransferDelay sim.Time `json:"transferDelayNs"`
	// Timeouts and Retransmits describe the recovery cost.
	Timeouts    uint64 `json:"timeouts"`
	Retransmits uint64 `json:"retransmits"`
	// ExitBurst is the largest number of data packets the sender
	// emitted within one bottleneck transmission time right after
	// leaving recovery — the "big ACK" burst measure.
	ExitBurst int `json:"exitBurst"`
	// Finished reports completion within the horizon.
	Finished bool `json:"finished"`
}

// AblationResult aggregates the matrix.
type AblationResult struct {
	Drops int           `json:"drops"`
	Rows  []AblationRow `json:"rows"`
}

// Ablation runs the Figure-5 burst-loss transfer (with an extra loss
// injected during recovery so the further-loss machinery is exercised)
// once per design variant.
func Ablation(drops int) (*AblationResult, error) {
	res, err := Run(NewAblationExperiment(drops), RunOptions{})
	if err != nil {
		return nil, err
	}
	return res.(*AblationResult), nil
}

// AblationExperiment adapts the design-choice matrix to the Experiment
// interface: one job per variant, all on the same engineered scenario.
type AblationExperiment struct {
	drops int
}

// NewAblationExperiment returns the experiment (drops <= 0 means 3).
func NewAblationExperiment(drops int) *AblationExperiment {
	if drops <= 0 {
		drops = 3
	}
	return &AblationExperiment{drops: drops}
}

// Name implements Experiment.
func (e *AblationExperiment) Name() string { return "ablation" }

// Jobs implements Experiment.
func (e *AblationExperiment) Jobs() ([]sweep.Job, error) {
	drops := e.drops
	var jobs []sweep.Job
	for _, v := range AblationVariants() {
		jobs = append(jobs, sweep.Job{
			Name: v.Label,
			// The scenario is fully engineered; every variant runs the
			// same fixed seed so rows differ only by the design knob.
			Seed: 1,
			Run: func(seed int64) (any, error) {
				row, err := ablationRun(drops, v, seed)
				if err != nil {
					return nil, fmt.Errorf("ablation (%s): %w", v.Label, err)
				}
				return row, nil
			},
		})
	}
	return jobs, nil
}

// Reduce implements Experiment.
func (e *AblationExperiment) Reduce(results []any) (Renderable, error) {
	rows, err := sweep.Collect[AblationRow](results)
	if err != nil {
		return nil, err
	}
	return &AblationResult{Drops: e.drops, Rows: rows}, nil
}

func ablationRun(drops int, v AblationVariant, seed int64) (AblationRow, error) {
	sched := sim.NewScheduler(seed)
	loss := netem.NewSeqLoss(nil)
	const mss = int64(1000)
	for i := 0; i < drops; i++ {
		loss.Drop(0, (60+int64(i))*mss)
	}
	// A further loss hits a new data packet sent during recovery: with
	// the window at ~13 packets when the burst hits, maxseq is ~73 at
	// entry and the retreat sub-phase injects packets 73+, so drop one
	// of those.
	loss.Drop(0, 75*mss)

	dcfg := netem.PaperDropTailConfig(1)
	dcfg.Loss = loss
	d, err := netem.NewDumbbell(sched, dcfg)
	if err != nil {
		return AblationRow{}, err
	}
	opts := v.Options
	burst := &exitBurst{window: d.ForwardLink().TransmissionDelay(1000)}
	flow, err := workload.Install(sched, d, 0, workload.FlowSpec{
		Kind:            workload.RR,
		Bytes:           150 * mss,
		Window:          18,
		InitialSSThresh: 9,
		RROptions:       &opts,
		Telemetry:       telemetry.NewBus(burst),
	})
	if err != nil {
		return AblationRow{}, err
	}
	sched.Run(120 * time.Second)

	row := AblationRow{
		Variant:     v,
		Timeouts:    uint64(flow.Sender.Timeouts()),
		Retransmits: uint64(flow.Sender.Retransmits()),
		ExitBurst:   burst.count,
	}
	if delay, ok := flow.Sender.TransferDelay(); ok {
		row.Finished = true
		row.TransferDelay = delay
	}
	return row, nil
}

// exitBurst counts data packets sent (first transmissions and
// retransmissions) from the first recovery exit through one bottleneck
// transmission time after it, in constant space. RR publishes the exit
// before the exit ACK clocks out any packet, so no send of the burst
// precedes the event.
type exitBurst struct {
	window sim.Time

	exited bool
	exitAt sim.Time
	count  int
}

// Emit implements telemetry.Sink.
func (b *exitBurst) Emit(ev telemetry.Event) {
	switch ev.Kind {
	case telemetry.KSend, telemetry.KRetransmit:
		if b.exited && ev.At <= b.exitAt+b.window {
			b.count++
		}
	case telemetry.KRecoveryExit:
		if !b.exited {
			b.exited, b.exitAt = true, ev.At
		}
	}
}

// Render returns the ablation matrix as a text table.
func (r *AblationResult) Render() string {
	t := Table{
		Title:  fmt.Sprintf("RR design ablations (%d drops + 1 further loss during recovery)", r.Drops),
		Header: []string{"variant", "transfer delay", "timeouts", "rtx", "exit burst"},
	}
	for _, row := range r.Rows {
		delay := "DNF"
		if row.Finished {
			delay = fmt.Sprintf("%.3fs", row.TransferDelay.Seconds())
		}
		t.AddRow(row.Variant.Label, delay, fmt.Sprintf("%d", row.Timeouts),
			fmt.Sprintf("%d", row.Retransmits), fmt.Sprintf("%d", row.ExitBurst))
	}
	return t.String()
}
