package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the child server: startChild
// re-executes the running binary with "serve".
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tinyScale runs every workload in about two seconds. It drops the
// percentile rule's samples beyond, as a second of traffic cannot back a
// p90 with 100 samples, so every percentile needs one sample only (the
// async-job client, paced by the 100 ms event-stream poll, finishes a
// handful of jobs); everything else works as at full scale.
var tinyScale = scale{
	measure:        time.Second,
	warmup:         100 * time.Millisecond,
	setupReps:      1,
	beyond:         0,
	coldInputs:     8,
	coldRows:       [3]int{200, 300, 400},
	coldRate:       40,
	warmRate:       200,
	warmRandomRows: 500,
	sigRate:        100,
	permutations:   50,
	driftLap:       2000,
	monitorRate:    100,
	replayTables:   2,
}

// TestSmoke runs all four workloads, untraced and traced, at the tiny
// scale. Every metric BENCHMARK.json names must be emitted, and no
// operation or check may fail.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, trace := range []bool{false, true} {
		var want []string
		for _, m := range spec.EndToEnd {
			if !trace {
				want = append(want, m.Name)
			}
		}
		for _, m := range spec.PerLayer {
			if trace {
				want = append(want, m.Name)
			}
		}
		slices.Sort(want)
		for _, name := range workloadNames {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			start := time.Now()
			res, err := runWorkload(ctx, name, 7, tinyScale, trace)
			cancel()
			t.Logf("%s (trace %v) took %v", name, trace, time.Since(start).Round(time.Millisecond))
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, trace, err)
			}
			if !res.Correct || res.Failed > 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if got := sortedKeys(res.Metrics); !slices.Equal(got, want) {
				t.Errorf("%s (trace %v): emitted metrics\n%v\nwant\n%v", name, trace, got, want)
			}
		}
	}
}
