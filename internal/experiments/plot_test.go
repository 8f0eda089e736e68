package experiments

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"rrtcp/internal/telemetry"
)

func TestRenderASCII(t *testing.T) {
	pts := []Point{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 4}}
	out := renderASCII(pts, 20, 10)
	if !strings.Contains(out, "*") {
		t.Fatal("no points rendered")
	}
	if renderASCII(nil, 20, 10) != "(no data)\n" {
		t.Fatal("empty input not handled")
	}
	if renderASCII(pts, 1, 1) != "(no data)\n" {
		t.Fatal("degenerate grid not handled")
	}
	// Identical points must not divide by zero.
	same := []Point{{X: 1, Y: 1}, {X: 1, Y: 1}}
	if !strings.Contains(renderASCII(same, 10, 5), "*") {
		t.Fatal("degenerate range not handled")
	}
}

// Property: renderASCII never panics and always contains a point
// marker for arbitrary inputs.
func TestRenderASCIIProperty(t *testing.T) {
	f := func(xs, ys []int16, w, h uint8) bool {
		n := min(len(xs), len(ys))
		pts := make([]Point, 0, n)
		for i := 0; i < n; i++ {
			pts = append(pts, Point{X: float64(xs[i]), Y: float64(ys[i])})
		}
		out := renderASCII(pts, int(w%100), int(h%40))
		if len(pts) == 0 || int(w%100) < 2 || int(h%40) < 2 {
			return out == "(no data)\n"
		}
		return strings.Contains(out, "*")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqPlotPoints(t *testing.T) {
	var p seqPlot
	p.Emit(telemetry.Event{At: time.Second, Kind: telemetry.KSend, Seq: 5000})
	p.Emit(telemetry.Event{At: 2 * time.Second, Kind: telemetry.KAck, Seq: 6000})
	p.Emit(telemetry.Event{At: 3 * time.Second, Kind: telemetry.KRetransmit, Seq: 2000})
	want := []Point{{X: 1, Y: 5}, {X: 3, Y: 2}}
	if len(p.pts) != len(want) || p.pts[0] != want[0] || p.pts[1] != want[1] {
		t.Fatalf("points %+v, want %+v", p.pts, want)
	}
}
