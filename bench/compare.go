package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
)

// benchmarkSpec is the part of BENCHMARK.json compare reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readSpec reads BENCHMARK.json from the working directory or its parent
// (the repository root when run from bench/).
func readSpec() (benchmarkSpec, error) {
	var spec benchmarkSpec
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		raw, err := os.ReadFile(p)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return spec, err
		}
		if err := json.Unmarshal(raw, &spec); err != nil {
			return spec, fmt.Errorf("decoding %s: %w", p, err)
		}
		return spec, nil
	}
	return spec, errors.New("BENCHMARK.json not found here or in the parent directory")
}

// compareMain compares two sets of runs (the -out files of `run`),
// A the parent and B the change, metric by metric and workload by
// workload, under the directions and bounds of BENCHMARK.json.
func compareMain(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: compare <runsA.jsonl> <runsB.jsonl>")
	}
	spec, err := readSpec()
	if err != nil {
		return err
	}
	a, err := readRuns(args[0])
	if err != nil {
		return err
	}
	b, err := readRuns(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %-18s %10s %10s %10s | %10s %10s %10s | %6s %5s  %s\n",
		"workload", "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "change", "wins", "verdict")
	bad := 0
	for _, wl := range workloadNames {
		if len(a[wl]) == 0 && len(b[wl]) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			xa, xb := values(a[wl], m.Name), values(b[wl], m.Name)
			if len(xa) < 2 || len(xb) < 2 {
				fmt.Printf("%-16s %-18s need at least 2 runs per side (have %d and %d)\n", wl, m.Name, len(xa), len(xb))
				bad++
				continue
			}
			v := judge(xa, xb, m.Better == "higher", m.Bound)
			fmt.Printf("%-16s %-18s %10.4g %10.4g %10.4g | %10.4g %10.4g %10.4g | %+5.1f%% %2d/%-2d  %s\n",
				wl, m.Name, v.a.q1, v.a.med, v.a.q3, v.b.q1, v.b.med, v.b.q3, 100*v.change, v.wins, v.pairs, v.verdict)
			if v.verdict == "worse" || v.verdict == "unresolved" {
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows worse or unresolved", bad)
	}
	return nil
}

// readRuns groups a -out file's untraced records by workload, in file
// order.
func readRuns(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r.Result)
		}
	}
	return out, sc.Err()
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

type summary struct{ q1, med, q3 float64 }

func summarize(xs []float64) summary {
	q1, q3, _ := quartiles(xs) // callers pass at least two values
	return summary{q1, median(xs), q3}
}

// verdict is one compare row.
type verdict struct {
	a, b        summary
	change      float64 // relative change of the median, positive = worse
	wins, pairs int
	verdict     string
}

// judge applies the rules for claiming a change:
//   - better: B beats A in at least 9 of 10 pairs (ties count for
//     neither) and the medians differ by more than A's interquartile
//     spread;
//   - unresolved: either side's spread exceeds the bound, unless every
//     run of B reads better than every run of A;
//   - worse: B's median is worse than A's by more than the bound;
//   - within bound otherwise.
//
// Runs pair up in file order.
func judge(xa, xb []float64, higher bool, bound float64) verdict {
	v := verdict{a: summarize(xa), b: summarize(xb)}
	better := func(x, y float64) bool { // x better than y
		if higher {
			return x > y
		}
		return x < y
	}
	v.change = (v.b.med - v.a.med) / v.a.med
	if higher {
		v.change = -v.change
	}
	v.pairs = len(xa)
	if len(xb) < v.pairs {
		v.pairs = len(xb)
	}
	for i := 0; i < v.pairs; i++ {
		if better(xb[i], xa[i]) {
			v.wins++
		}
	}
	spreadA := (v.a.q3 - v.a.q1) / v.a.med
	spreadB := (v.b.q3 - v.b.q1) / v.b.med
	allBetter := true
	for _, x := range xb {
		for _, y := range xa {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case 10*v.wins >= 9*v.pairs && better(v.b.med, v.a.med) && math.Abs(v.b.med-v.a.med) > v.a.q3-v.a.q1:
		v.verdict = "better"
	case spreadA > bound || spreadB > bound:
		if allBetter {
			v.verdict = "within bound"
		} else {
			v.verdict = "unresolved"
		}
	case v.change > bound:
		v.verdict = "worse"
	default:
		v.verdict = "within bound"
	}
	return v
}
