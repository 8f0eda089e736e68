package main

import (
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// Runtime counters read through runtime/metrics, which does not stop
// the world.
const (
	heapObjectsMetric = "/memory/classes/heap/objects:bytes"
	allocsMetric      = "/gc/heap/allocs:objects"
)

func readUint64(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapObjects reports the bytes held by heap objects, live or not yet
// swept.
func heapObjects() uint64 { return readUint64(heapObjectsMetric) }

// mallocs reports the cumulative count of heap allocations.
func mallocs() uint64 { return readUint64(allocsMetric) }

// liveHeap collects garbage and reports the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	return heapObjects()
}

// heapPeak samples heap-object bytes every 10 ms on its own goroutine
// and keeps the largest reading; Stop ends the goroutine, waits for it
// and returns the peak. A 1 ms period slowed many-flows by about 3%.
type heapPeak struct {
	stop chan struct{}
	done chan uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: heapObjectsMetric}}
		var peak uint64
		read := func() {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
		}
		read()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				read()
				h.done <- peak
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// Stop returns the peak heap-object bytes seen since start.
func (h *heapPeak) Stop() uint64 {
	close(h.stop)
	return <-h.done
}

// span is one timed interval of the benchmark's own calls into a layer.
// Spans of one repetition share its root; Parent is 0 for a root.
type span struct {
	Name   string
	ID     int
	Parent int
	Start  time.Duration // offset from the tracer's epoch
	End    time.Duration
	Lane   int // display lane: 0 for the calling goroutine, 1+w for sweep worker w
}

// tracer records spans in memory; a nil tracer records nothing, which
// is how untraced repetitions run the same code.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its identifier.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Start: time.Since(t.epoch), End: -1})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.epoch)
}

// add records an already-finished span that ended at end after running
// for dur, on the given lane.
func (t *tracer) add(name string, parent int, end time.Time, dur time.Duration, lane int) {
	if t == nil {
		return
	}
	e := end.Sub(t.epoch)
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Start: e - dur, End: e, Lane: lane})
}

// selfTime is one span name's total and self time: the span's duration
// minus the part of it that its children cover.
type selfTime struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

func (t *tracer) selfTimes() []selfTime {
	// Children may overlap (sweep jobs run on several workers), so a
	// parent's covered time is the union of its children's intervals,
	// clipped to the parent.
	children := make([][]span, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	covered := make([]time.Duration, len(t.spans)+1)
	for id, kids := range children {
		if len(kids) == 0 {
			continue
		}
		p := t.spans[id-1]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		cur := p.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, p.End)
			if hi > lo {
				covered[id] += hi - lo
				cur = hi
			}
		}
	}
	byName := map[string]*selfTime{}
	var order []string
	for _, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
			order = append(order, s.Name)
		}
		st.Count++
		st.Total += s.End - s.Start
		st.Self += s.End - s.Start - covered[s.ID]
	}
	out := make([]selfTime, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (openable in
// Perfetto), one complete event per span.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		evs = append(evs, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": evs}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes writes the per-name span table.
func (t *tracer) printSelfTimes(w io.Writer) {
	fmt.Fprintf(w, "# spans: %-28s %6s %12s %12s\n", "name", "count", "total_ms", "self_ms")
	for _, s := range t.selfTimes() {
		fmt.Fprintf(w, "# spans: %-28s %6d %12.3f %12.3f\n", s.Name, s.Count,
			float64(s.Total.Nanoseconds())/1e6, float64(s.Self.Nanoseconds())/1e6)
	}
}

// countWriter counts the bytes written through it and, when h is set,
// hashes them.
type countWriter struct {
	n int64
	h hash.Hash
}

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	if c.h != nil {
		c.h.Write(p) // a hash.Hash never returns an error
	}
	return len(p), nil
}
