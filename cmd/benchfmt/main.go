// Command benchfmt converts `go test -bench` output on stdin into the
// canonical divex-bench/v1 JSON snapshot on stdout (or -out). It is the
// formatting half of scripts/bench.sh:
//
//	go test -run=NONE -bench ... -benchmem -cpu=1 ./... | go run ./cmd/benchfmt -date 2026-08-08 -out BENCH_2026-08-08.json
//
// With -compare it is the allocation gate of scripts/verify.sh instead:
// it compares the run on stdin with the newest BENCH_*.json in the
// working directory, prints each benchmark's ns/op and allocs/op
// deltas, and exits 1 when any allocs/op rose or has no baseline. ns/op
// is printed but not gated.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/benchfmt"
)

func main() {
	date := flag.String("date", "", "snapshot date (YYYY-MM-DD); defaults to today")
	out := flag.String("out", "", "output file; defaults to stdout")
	compare := flag.Bool("compare", false, "gate the run on stdin against the newest BENCH_*.json in the working directory instead of writing a snapshot")
	flag.Parse()

	d := *date
	if d == "" {
		d = time.Now().Format("2006-01-02")
	}
	rep, err := benchfmt.Parse(os.Stdin, d)
	if err != nil {
		fail(err)
	}
	if *compare {
		gate(rep)
		return
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}
	if err := benchfmt.Write(w, rep); err != nil {
		fail(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "benchfmt: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
	}
}

// gate compares fresh with the newest snapshot in the working directory
// and exits 1 unless every benchmark passes.
func gate(fresh *benchfmt.Report) {
	path, err := benchfmt.Newest(".")
	if err != nil {
		fail(err)
	}
	base, err := benchfmt.Load(path)
	if err != nil {
		fail(err)
	}
	fmt.Printf("benchfmt: %d benchmarks against %s (ns/op printed, allocs/op gated)\n", len(fresh.Benchmarks), path)
	ok, err := benchfmt.WriteComparison(os.Stdout, benchfmt.Compare(base, fresh))
	if err != nil {
		fail(err)
	}
	if !ok {
		fail(fmt.Errorf("benchfmt: allocation gate failed against %s", path))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
