package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"rrtcp/internal/telemetry"
	"rrtcp/internal/telemetry/flowstats"
	"rrtcp/internal/workload"
)

// flatFigure5Out is the checkpoint shape of a fig5 job result from
// before chunked capture, when the events were a flat slice.
type flatFigure5Out struct {
	Row    Figure5Row
	Events []telemetry.Event
	Flow   *flowstats.Summary `json:",omitempty"`
}

// runFigure5Job runs the first job of a one-variant fig5 experiment.
func runFigure5Job(t *testing.T, cfg Figure5Config) figure5Out {
	t.Helper()
	jobs, err := NewFigure5Experiment(cfg).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	res, err := jobs[0].Run(jobs[0].Seed)
	if err != nil {
		t.Fatal(err)
	}
	return res.(figure5Out)
}

// TestFigure5CheckpointShape pins the journal record of a fig5 job: a
// result with chunked capture marshals to exactly the JSON a flat
// []telemetry.Event gave, and a record in that shape decodes and
// republishes the same event stream.
func TestFigure5CheckpointShape(t *testing.T) {
	variants := []workload.Kind{workload.RR}
	out := runFigure5Job(t, Figure5Config{
		Variants:  variants,
		Telemetry: telemetry.NewBus(telemetry.NullSink{}),
		FlowStats: true,
	})
	if len(out.Events.chunks) < 2 {
		t.Fatalf("capture used %d chunks; the test needs a multi-chunk stream", len(out.Events.chunks))
	}
	var flat []telemetry.Event
	for _, chunk := range out.Events.chunks {
		flat = append(flat, chunk...)
	}
	got, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(flatFigure5Out{Row: out.Row, Events: flat, Flow: out.Flow})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("chunked record differs from the flat one:\n got %.200s\nwant %.200s", got, want)
	}

	// The flat record decodes and republishes the stream it was
	// written from.
	var wantNDJSON bytes.Buffer
	nd := telemetry.NewNDJSONSink(&wantNDJSON)
	for _, ev := range flat {
		nd.Emit(ev)
	}
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}
	var gotNDJSON bytes.Buffer
	nd = telemetry.NewNDJSONSink(&gotNDJSON)
	e := NewFigure5Experiment(Figure5Config{Variants: variants, Telemetry: telemetry.NewBus(nd)})
	decoded, err := e.DecodeResult(want)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Reduce([]any{decoded}); err != nil {
		t.Fatal(err)
	}
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}
	if gotNDJSON.String() != wantNDJSON.String() {
		t.Fatal("decoded record republished a different NDJSON stream")
	}
}

// TestFigure5CheckpointShapeUnobserved covers a run without telemetry,
// whose record carries "Events":null as the flat slice's nil did.
func TestFigure5CheckpointShapeUnobserved(t *testing.T) {
	out := runFigure5Job(t, Figure5Config{Variants: []workload.Kind{workload.NewReno}})
	if out.Events != nil {
		t.Fatal("a run without telemetry captured events")
	}
	got, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(flatFigure5Out{Row: out.Row})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("unobserved record %s, want %s", got, want)
	}
}
