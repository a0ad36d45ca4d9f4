package benchfmt

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareVerdicts(t *testing.T) {
	base := &Report{Benchmarks: []Result{
		{Package: "p", Name: "Same", Procs: 1, NsPerOp: 100, AllocsPerOp: 5},
		{Package: "p", Name: "Fewer", Procs: 1, NsPerOp: 100, AllocsPerOp: 5},
		{Package: "p", Name: "More", Procs: 1, NsPerOp: 100, AllocsPerOp: 5},
		{Package: "p", Name: "Slower", Procs: 1, NsPerOp: 100, AllocsPerOp: 5},
		{Package: "p", Name: "NoMem", Procs: 1, NsPerOp: 100, AllocsPerOp: -1},
		{Package: "p", Name: "Procs", Procs: 2, NsPerOp: 100, AllocsPerOp: 5},
		{Package: "q", Name: "Same", Procs: 1, NsPerOp: 100, AllocsPerOp: 1},
	}}
	fresh := &Report{Benchmarks: []Result{
		{Package: "p", Name: "Same", Procs: 1, NsPerOp: 90, AllocsPerOp: 5},
		{Package: "p", Name: "Fewer", Procs: 1, NsPerOp: 100, AllocsPerOp: 4},
		{Package: "p", Name: "More", Procs: 1, NsPerOp: 100, AllocsPerOp: 6},
		{Package: "p", Name: "Slower", Procs: 1, NsPerOp: 500, AllocsPerOp: 5},
		{Package: "p", Name: "NoMem", Procs: 1, NsPerOp: 100, AllocsPerOp: 5},
		{Package: "p", Name: "Procs", Procs: 1, NsPerOp: 100, AllocsPerOp: 5},
		{Package: "p", Name: "New", Procs: 1, NsPerOp: 100, AllocsPerOp: 0},
		{Package: "p", Name: "FreshNoMem", Procs: 1, NsPerOp: 100, AllocsPerOp: -1},
	}}
	want := map[string]Verdict{
		"Same":       VerdictOK,
		"Fewer":      VerdictOK,
		"More":       VerdictAllocsRose,
		"Slower":     VerdictOK, // ns/op is printed, never gated
		"NoMem":      VerdictNoBaseline,
		"Procs":      VerdictNoBaseline, // a -cpu mismatch is not a baseline
		"New":        VerdictNoBaseline,
		"FreshNoMem": VerdictNoBaseline,
	}
	ds := Compare(base, fresh)
	if len(ds) != len(fresh.Benchmarks) {
		t.Fatalf("%d deltas for %d fresh benchmarks", len(ds), len(fresh.Benchmarks))
	}
	for _, d := range ds {
		if got := d.Verdict(); got != want[d.Fresh.Name] {
			t.Errorf("%s: verdict %q, want %q", d.Fresh.Name, got, want[d.Fresh.Name])
		}
	}
	if d := ds[0]; d.Base == nil || d.Base.Package != "p" {
		t.Errorf("Same matched %+v, want package p's entry", d.Base)
	}

	var out strings.Builder
	ok, err := WriteComparison(&out, ds)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("gate passed with a rise and missing baselines")
	}
	if !strings.Contains(out.String(), "allocs/op      5 ->      6 (+1)") || !strings.Contains(out.String(), "(+400.0%)") {
		t.Errorf("comparison lacks the deltas:\n%s", out.String())
	}

	ok, err = WriteComparison(&out, ds[:2])
	if err != nil || !ok {
		t.Errorf("gate over equal and fewer allocs: ok=%v err=%v, want pass", ok, err)
	}
}

func TestNewestAndLoad(t *testing.T) {
	dir := t.TempDir()
	if _, err := Newest(dir); err == nil {
		t.Error("empty directory yielded a snapshot")
	}
	// A day's second snapshot is named by its UTC time too
	// (scripts/bench.sh) and is that day's newest.
	for _, name := range []string{"2026-08-08", "2026-10-17T091500", "2026-10-17", "2025-12-31"} {
		f, err := os.Create(filepath.Join(dir, "BENCH_"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		rep := &Report{Schema: Schema, Date: name[:10], Benchmarks: []Result{{Package: "p", Name: "X", Procs: 1}}}
		if err := Write(f, rep); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	path, err := Newest(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_2026-10-17T091500.json" || rep.Date != "2026-10-17" || len(rep.Benchmarks) != 1 {
		t.Errorf("newest snapshot = %s (%s, %d benchmarks), want BENCH_2026-10-17T091500.json with 1", path, rep.Date, len(rep.Benchmarks))
	}

	bad := filepath.Join(dir, "other.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"other/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Error("foreign schema accepted")
	}
}
