package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWorkloadsTiny runs every workload at test size, untraced and
// traced, and checks that its output check passes and that it prints
// every named metric.
func TestWorkloadsTiny(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []string{"0", "1"} {
			name, traced := name, traced
			t.Run(name+"/trace="+traced, func(t *testing.T) {
				var out, errOut bytes.Buffer
				args := []string{"--workload", name, "--seed", "9", "--seconds", "0", "--trace", traced,
					"--tiny", "--spans-out", filepath.Join(t.TempDir(), "spans.json")}
				if code := run(args, &out, &errOut); code != 0 {
					t.Fatalf("exit %d: %s", code, errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("check failed: %+v\n%s", res, out.String())
				}
				want := endToEnd
				if traced == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.name, got, m.unit)
					}
					if traced == "0" && got.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v", m.name, got.Value)
					}
				}
			})
		}
	}
}

// TestMismatchCountsAsFailure checks that an output-check mismatch
// counts every job of its operation as failed.
func TestMismatchCountsAsFailure(t *testing.T) {
	var b bench
	b.op(5, nil)
	b.op(3, manyFlowsCheck(manyFlowsOutcome{events: 1}, manyFlowsRecord{Events: 2}))
	b.op(0, errors.New("experiment failed before its jobs were known"))
	if b.attempted != 9 || b.failed != 4 {
		t.Fatalf("attempted %d failed %d, want 9 and 4", b.attempted, b.failed)
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json at the repository
// root declares exactly the workloads and metrics the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		Workloads []decl
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []decl, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d, the benchmark %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads: BENCHMARK.json has %v, the benchmark %v", names, workloadNames())
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Fatal("unknown workload printed a result")
	}
}
