package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/ golden files from the current output")

// TestRunScenarioGolden pins `rrsim run -json -trace out.csv` on the
// shipped example scenarios byte for byte: the JSON report (goodput,
// bytes acknowledged, retransmits, timeouts, transfer delay) and flow
// 0's CSV event trace (columns, event names, value mapping).
// Regenerate with `go test ./cmd/rrsim -run Golden -update`.
func TestRunScenarioGolden(t *testing.T) {
	for _, name := range []string{"burstloss", "twoway-fairqueue"} {
		t.Run(name, func(t *testing.T) {
			csvOut := filepath.Join(t.TempDir(), "trace.csv")
			out, err := capture(t, func() error {
				return run([]string{"run", "-json", "-trace", csvOut,
					"../../examples/scenarios/" + name + ".json"})
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			csv, err := os.ReadFile(csvOut)
			if err != nil {
				t.Fatalf("trace file: %v", err)
			}
			checkGolden(t, filepath.Join("testdata", name+".json"), []byte(out))
			checkGolden(t, filepath.Join("testdata", name+".csv"), csv)
		})
	}
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file: %v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: output differs from golden (%d bytes, want %d)", path, len(got), len(want))
	}
}
