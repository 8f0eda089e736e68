package scenario

import (
	"errors"
	"strings"
	"testing"
	"time"

	"rrtcp/internal/telemetry"
)

const csvHeader = "time_s,event,seq,value\n"

func TestCSVTraceHeaderOnly(t *testing.T) {
	var b strings.Builder
	if err := newCSVTrace(&b).flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if b.String() != csvHeader {
		t.Fatalf("empty trace output %q, want header only", b.String())
	}
}

func TestCSVTraceRows(t *testing.T) {
	var b strings.Builder
	c := newCSVTrace(&b)
	c.Emit(telemetry.Event{At: time.Second, Kind: telemetry.KSend, Seq: 1000})
	c.Emit(telemetry.Event{At: 2 * time.Second, Kind: telemetry.KCwnd, Seq: 2000, A: 8.5})
	if err := c.flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	want := csvHeader + "1.000000,send,1000,0.000\n2.000000,cwnd,2000,8.500\n"
	if b.String() != want {
		t.Fatalf("output\n%s\nwant\n%s", b.String(), want)
	}
}

func TestCSVTraceMapsTelemetryKinds(t *testing.T) {
	var b strings.Builder
	c := newCSVTrace(&b)
	for _, ev := range []telemetry.Event{
		{At: time.Second, Kind: telemetry.KRecoveryEnter, Seq: 2000, A: 13, B: 6.5},
		{At: 2 * time.Second, Kind: telemetry.KRetreatProbe, Seq: 3000, A: 4},
		{At: 3 * time.Second, Kind: telemetry.KFurtherLoss, Seq: 4000, A: 4, B: 1},
		{At: 4 * time.Second, Kind: telemetry.KRecoveryExit, Seq: 5000, A: 5},
		// Events outside the per-flow vocabulary add no row.
		{At: 5 * time.Second, Kind: telemetry.KActnum, A: 4},
		{At: 5 * time.Second, Kind: telemetry.KFlowStart, A: 1e6},
		{At: 6 * time.Second, Kind: telemetry.KDeliver, Seq: 6000},
	} {
		c.Emit(ev)
	}
	if err := c.flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	want := csvHeader +
		"1.000000,recovery,2000,13.000\n" +
		"2.000000,probe,3000,4.000\n" +
		"3.000000,further-loss,4000,3.000\n" + // actnum − ndup
		"4.000000,exit,5000,5.000\n" +
		"6.000000,deliver,6000,0.000\n"
	if b.String() != want {
		t.Fatalf("output\n%s\nwant\n%s", b.String(), want)
	}
}

// TestCSVEventNames checks the CSV vocabulary over every telemetry
// kind: exactly the twelve per-flow kinds get a row, each under its own
// name.
func TestCSVEventNames(t *testing.T) {
	want := map[string]bool{
		"send": true, "rtx": true, "ack": true, "dupack": true, "timeout": true,
		"done": true, "deliver": true, "cwnd": true, "recovery": true,
		"exit": true, "further-loss": true, "probe": true,
	}
	seen := make(map[string]telemetry.Kind, len(want))
	for k := telemetry.KSend; k.String() != "?"; k++ {
		name, _ := csvEvent(telemetry.Event{Kind: k})
		if name == "" {
			continue
		}
		if !want[name] {
			t.Fatalf("kind %v has unexpected CSV name %q", k, name)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("kinds %v and %v share CSV name %q", prev, k, name)
		}
		seen[name] = k
	}
	if len(seen) != len(want) {
		t.Fatalf("%d kinds named, want %d: %v", len(seen), len(want), seen)
	}
}

func TestCSVTraceUnmappedOnlyIsHeader(t *testing.T) {
	var b strings.Builder
	c := newCSVTrace(&b)
	for _, k := range []telemetry.Kind{telemetry.KActnum, telemetry.KEnqueue,
		telemetry.KDrop, telemetry.KFlowStart, telemetry.KFlowStats, telemetry.KSample} {
		c.Emit(telemetry.Event{At: time.Second, Kind: k, Seq: 1000, A: 1})
	}
	if err := c.flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if b.String() != csvHeader {
		t.Fatalf("output %q, want header only", b.String())
	}
}

// TestRunWithTraceMatchesFlowZeroEvents runs a two-flow scenario and
// requires the CSV to hold exactly flow 0's per-flow events, in order,
// as the scenario's own bus saw them.
func TestRunWithTraceMatchesFlowZeroEvents(t *testing.T) {
	spec, err := Load(strings.NewReader(sampleScenario))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	ring := telemetry.NewRing(0)
	spec.Telemetry = telemetry.NewBus(ring)
	var got strings.Builder
	if _, err := spec.RunWithTrace(&got); err != nil {
		t.Fatalf("run: %v", err)
	}
	var want strings.Builder
	c := newCSVTrace(&want)
	rows, other := 0, 0
	for _, ev := range ring.Events() {
		if name, _ := csvEvent(ev); name == "" {
			continue
		}
		if ev.Flow != 0 {
			other++
			continue
		}
		c.Emit(ev)
		rows++
	}
	if err := c.flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if rows == 0 || other == 0 {
		t.Fatalf("flow 0 rows %d, other-flow events %d; want both > 0", rows, other)
	}
	if got.String() != want.String() {
		t.Fatalf("trace CSV differs from flow 0's events (%d rows)", rows)
	}
}

// TestRunWithTraceIdleFlowIsHeader runs a scenario whose flow 0 starts
// after the horizon: the trace is the header alone, without error.
func TestRunWithTraceIdleFlowIsHeader(t *testing.T) {
	spec, err := Load(strings.NewReader(sampleScenario))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	spec.Flows[0].StartAt = spec.Duration + Duration(time.Second)
	var b strings.Builder
	if _, err := spec.RunWithTrace(&b); err != nil {
		t.Fatalf("run: %v", err)
	}
	if b.String() != csvHeader {
		t.Fatalf("idle flow trace %q, want header only", b.String())
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestCSVTraceWriteErrorSurfaces(t *testing.T) {
	c := newCSVTrace(failWriter{})
	c.Emit(telemetry.Event{Kind: telemetry.KSend})
	if err := c.flush(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("flush error = %v, want the write failure", err)
	}
}
