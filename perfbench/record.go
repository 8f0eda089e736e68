package main

import (
	"fmt"
	"io"
)

// printRecorded runs every checked input once and prints the values in
// recorded.go's form.
func printRecorded(w io.Writer, tiny bool) error {
	suffix, size := "", manyFlowsFull
	if tiny {
		suffix, size = "Tiny", manyFlowsTiny
	}
	fmt.Fprintf(w, "var recordedManyFlows%s = map[int64]manyFlowsRecord{\n", suffix)
	for _, seed := range inputSeeds {
		o, err := runManyFlowsWorld(seed, size, manyFlowsSpecs(seed, size.flows), nil, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\t%d: {Events: %d, Packets: %d, Delivered: %d},\n", seed, o.events, o.packets, o.delivered)
	}
	fmt.Fprintf(w, "}\n\nvar recordedChaos%s = map[int64]chaosRecord{\n", suffix)
	for _, seed := range inputSeeds {
		o := runChaos(seed, chaosSchedules(tiny), nil)
		if o.err != nil {
			return o.err
		}
		fmt.Fprintf(w, "\t%d: {Digest: %q, Events: %d, Packets: %d},\n", seed, o.digest, o.events, o.pkts)
	}
	fmt.Fprintln(w, "}")
	if tiny {
		return nil
	}

	order := make([]int, len(paperSuite()))
	for i := range order {
		order[i] = i
	}
	suite := runSuite(order, nil)
	if suite.err != nil {
		return suite.err
	}
	fmt.Fprintf(w, "\n// recordedPaperSuite is the SHA-256 of `rrsim all -quick -json`.\nconst recordedPaperSuite = %q\n", suite.digest)

	sinks := newObservedSinks(true)
	if _, err := runFig5(sinks.bus, nil, 0); err != nil {
		return err
	}
	rec, d, err := sinks.seen()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nvar recordedObserved = observedRecord{NDJSONBytes: %d, Completed: %d, Spans: %d}\n", rec.NDJSONBytes, rec.Completed, rec.Spans)
	fmt.Fprintf(w, "\nconst recordedObservedDigest = %q\n", d)
	return nil
}
