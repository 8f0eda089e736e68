// Package experiments contains one runner per table and figure of the
// paper's evaluation (Figure 5, Figure 6, Figure 7, Table 5), plus the
// ACK-loss robustness scenario of Section 2.3. Each runner builds the
// scenario from the substrate packages, executes it deterministically,
// and returns structured results with a text rendering that mirrors
// what the paper reports.
//
// Every runner implements the Experiment interface — Name, Jobs,
// Reduce — and executes on the internal/sweep worker pool, so its
// independent runs fan out across CPUs while the merged result stays
// byte-identical to sequential execution (see docs/SWEEP.md). The
// registry in registry.go lists the experiments in canonical order;
// the classic entry points (Figure5, Table5, Chaos, ...) remain as
// thin wrappers over Run.
package experiments

import (
	"fmt"
	"strings"

	"rrtcp/internal/sim"
	"rrtcp/internal/tcp"
)

// runAcked runs sched through to and reports the bytes s had
// acknowledged strictly before from and by to — the ends of a fixed
// goodput window. Pausing the run at from-1ns only reads snd.una
// between two events; it schedules nothing.
func runAcked(sched *sim.Scheduler, s *tcp.Sender, from, to sim.Time) (before, by int64) {
	if from > 0 && from <= to {
		sched.Run(from - 1)
		before = s.SndUna()
	}
	sched.Run(to)
	return before, s.SndUna()
}

// goodputBps is the paper's "effective throughput": bytes acknowledged
// over [from, to], in bits per second.
func goodputBps(bytes int64, from, to sim.Time) float64 {
	if to <= from || bytes <= 0 {
		return 0
	}
	return float64(bytes) * 8 / (to - from).Seconds()
}

// Table is a simple column-aligned text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// kbps formats a bit-per-second value in Kbps.
func kbps(bps float64) string { return fmt.Sprintf("%.1f Kbps", bps/1000) }
