// Command bench is the end-to-end benchmark of the DivExplorer service.
// It starts the real server stack in a child process (this binary in
// "serve" mode), drives it over HTTP from one load-generating process
// with at most two connections, checks the answers, and prints every
// metric by name with its unit and sample count. The last line of a
// single-workload run is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// Commands (run from this directory, or through run.sh from the
// repository root):
//
//	go run . run -seed 1 [-workload audit-cold] [-out runs.jsonl]
//	go run . trace -seed 1 [-workload audit-cold]
//	go run . compare parent.jsonl change.jsonl
//	go run . capacity -seed 1
//	go run . --workload audit-cold --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

var workloadNames = []string{"audit-cold", "session-warm", "significance-wy", "monitor-stream"}

// runLimit bounds one workload's whole run, set-up to report.
const runLimit = 170 * time.Second

func main() {
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "serve":
		err = serveMain(args)
	case "run", "trace":
		err = runMain(cmd == "trace", args)
	case "compare":
		err = compareMain(args)
	case "capacity":
		err = capacityMain(args)
	default:
		err = fmt.Errorf("unknown command %q (want run, trace, compare or capacity)", cmd)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

// errFailed reports a run whose result was printed but that had failed
// operations or checks.
var errFailed = errors.New("operations or correctness checks failed")

func runMain(trace bool, args []string) error {
	// The load generator stays within the two cores the benchmark was
	// sized for; the server child keeps the runtime default.
	runtime.GOMAXPROCS(maxConns)
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload (default: all)")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", runSeconds, "measured seconds per workload")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass (per-layer metrics)")
	out := fs.String("out", "", "append one JSON record per workload to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	names := workloadNames
	if *workload != "" {
		if !slices.Contains(workloadNames, *workload) {
			return fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames, ", "))
		}
		names = []string{*workload}
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	sc := fullScale
	sc.measure = time.Duration(*seconds) * time.Second
	trace = trace || *traceFlag == 1

	failed := false
	for _, name := range names {
		ctx, cancel := context.WithTimeout(context.Background(), runLimit)
		res, err := runWorkload(ctx, name, *seed, sc, trace)
		cancel()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if *out != "" {
			if err := appendRecord(*out, name, *seed, trace, res); err != nil {
				return err
			}
		}
		fmt.Printf("%s\n", line)
		failed = failed || !res.Correct || res.Failed > 0
	}
	if failed {
		return errFailed
	}
	return nil
}

// newLoad generates a workload's inputs from the seed.
func newLoad(ctx context.Context, name string, seed int64, sc scale) (load, error) {
	switch name {
	case "audit-cold":
		return newAuditCold(seed, sc)
	case "session-warm":
		return newSessionWarm(ctx, seed, sc)
	case "significance-wy":
		return newSignificanceWY(ctx, seed, sc)
	case "monitor-stream":
		return newMonitorStream(seed, sc)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of a -out file, the input of compare.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(path, workload string, seed int64, trace bool, res result) error {
	b, err := json.Marshal(record{workload, seed, trace, res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

// printer writes the human-readable lines of a run: one per metric, with
// its unit and sample count.
type printer struct{ workload string }

func (p printer) metric(name string, v float64, unit string, n int) {
	fmt.Printf("metric workload=%s name=%s value=%.6g unit=%s n=%d\n", p.workload, name, v, unit, n)
}

func (p printer) note(format string, args ...any) {
	fmt.Printf("note workload=%s %s\n", p.workload, fmt.Sprintf(format, args...))
}

// sortedKeys returns a map's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
