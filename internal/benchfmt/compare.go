package benchfmt

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// The allocation gate: a fresh run of the hot benchmarks is compared
// with the newest committed snapshot. ns/op deltas are printed for the
// reader but never gated, because snapshots and gate runs happen on
// different hosts; allocs/op does not depend on the host, so any rise
// fails the gate. Both sides must run with -cpu=1, so per-worker state
// does not vary with the core count.

// Verdict is the gate's reading of one benchmark.
type Verdict string

const (
	// VerdictOK: allocs/op did not rise.
	VerdictOK Verdict = "ok"
	// VerdictAllocsRose: allocs/op rose above the baseline.
	VerdictAllocsRose Verdict = "allocs/op rose"
	// VerdictNoBaseline: the baseline has no allocation figure for this
	// benchmark at the same GOMAXPROCS, or the fresh run has none.
	VerdictNoBaseline Verdict = "no baseline"
)

// Delta is one fresh benchmark set against its baseline entry.
type Delta struct {
	Fresh Result
	// Base is the baseline entry with the same package, name and procs;
	// nil when the baseline has none.
	Base *Result
}

// Verdict classifies the delta for the gate.
func (d Delta) Verdict() Verdict {
	switch {
	case d.Base == nil || d.Base.AllocsPerOp < 0 || d.Fresh.AllocsPerOp < 0:
		return VerdictNoBaseline
	case d.Fresh.AllocsPerOp > d.Base.AllocsPerOp:
		return VerdictAllocsRose
	default:
		return VerdictOK
	}
}

// Compare pairs every benchmark of the fresh run with the baseline entry
// of the same package, name and procs, in the fresh run's order.
func Compare(base, fresh *Report) []Delta {
	type key struct {
		pkg, name string
		procs     int
	}
	idx := make(map[key]int, len(base.Benchmarks))
	for i, b := range base.Benchmarks {
		idx[key{b.Package, b.Name, b.Procs}] = i
	}
	out := make([]Delta, len(fresh.Benchmarks))
	for i, f := range fresh.Benchmarks {
		out[i].Fresh = f
		if j, ok := idx[key{f.Package, f.Name, f.Procs}]; ok {
			out[i].Base = &base.Benchmarks[j]
		}
	}
	return out
}

// WriteComparison prints one line per delta, with its ns/op and
// allocs/op change and its verdict, and reports whether every verdict is
// VerdictOK.
func WriteComparison(w io.Writer, ds []Delta) (bool, error) {
	pass := true
	for _, d := range ds {
		v := d.Verdict()
		pass = pass && v == VerdictOK
		f := d.Fresh
		line := fmt.Sprintf("%-28s %-40s", f.Package, f.Name)
		if d.Base != nil {
			b := d.Base
			line += fmt.Sprintf(" ns/op %12.0f -> %12.0f (%+6.1f%%)  allocs/op %6d -> %6d (%+d)",
				b.NsPerOp, f.NsPerOp, pctChange(b.NsPerOp, f.NsPerOp), b.AllocsPerOp, f.AllocsPerOp, f.AllocsPerOp-b.AllocsPerOp)
		} else {
			line += fmt.Sprintf(" ns/op %12.0f  allocs/op %6d", f.NsPerOp, f.AllocsPerOp)
		}
		if _, err := fmt.Fprintf(w, "%s  %s\n", line, v); err != nil {
			return false, fmt.Errorf("benchfmt: writing comparison: %w", err)
		}
	}
	return pass, nil
}

// pctChange is the relative change from a to b in percent; 0 when a is 0.
func pctChange(a, b float64) float64 {
	if a <= 0 {
		return 0
	}
	return 100 * (b - a) / a
}

// Newest returns the path of the newest BENCH_<date>.json snapshot in
// dir. Dates are ISO 8601, and a day's later snapshots are named
// BENCH_<date>T<HHMMSS>.json, which sort after its first ("T" after
// "."), so the newest sorts last by name.
func Newest(dir string) (string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", fmt.Errorf("benchfmt: listing snapshots: %w", err)
	}
	if len(paths) == 0 {
		return "", fmt.Errorf("benchfmt: no BENCH_*.json snapshot in %s", dir)
	}
	sort.Strings(paths)
	return paths[len(paths)-1], nil
}

// Load reads a snapshot written by Write.
func Load(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchfmt: reading snapshot: %w", err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("benchfmt: decoding %s: %w", path, err)
	}
	if rep.Schema != Schema {
		return nil, fmt.Errorf("benchfmt: %s has schema %q, want %q", path, rep.Schema, Schema)
	}
	return &rep, nil
}
