package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// digest hashes every byte a workload would send for a seed.
func digest(t *testing.T, seed int64) [32]byte {
	t.Helper()
	h := sha256.New()
	cold, err := coldTables(seed, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := warmTables(context.Background(), seed, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := sigTables(context.Background(), seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range [][]table{cold, warm, sig} {
		for _, tb := range ts {
			h.Write(tb.csv)
		}
	}
	feed := &driftFeed{seed: subSeed(seed, 200), lap: 500}
	for i := 0; i < 12; i++ { // crosses into a second lap
		b, err := feed.next()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestInputsFollowSeed(t *testing.T) {
	a, b, c := digest(t, 1), digest(t, 1), digest(t, 2)
	if a != b {
		t.Error("the same seed generated different inputs")
	}
	if a == c {
		t.Error("different seeds generated identical inputs")
	}
}

func TestPoissonScheduleFollowsSeed(t *testing.T) {
	d := 10 * time.Second
	a, b, c := poissonSchedule(1, 200, d), poissonSchedule(1, 200, d), poissonSchedule(2, 200, d)
	if len(a) != len(b) {
		t.Fatalf("same seed: %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at arrival %d", i)
		}
	}
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Error("different seeds gave the same schedule")
	}
	// 2000 arrivals expected; a Poisson count is within ±10% with
	// overwhelming probability.
	if len(a) < 1800 || len(a) > 2200 {
		t.Errorf("%d arrivals in 10 s at 200/s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= d {
			t.Fatalf("arrival %d at %v is out of order or past %v", i, a[i], d)
		}
	}
}

// TestDeckDealsEveryValueOncePerRound checks that any round of draws
// holds each value once, and that the order follows the seed.
func TestDeckDealsEveryValueOncePerRound(t *testing.T) {
	deal := func(seed int64) []int {
		d := newDeck(rand.New(rand.NewSource(seed)), 20)
		out := make([]int, 100)
		for i := range out {
			out[i] = d.draw()
		}
		return out
	}
	a, b, c := deal(1), deal(1), deal(2)
	if !slices.Equal(a, b) {
		t.Error("the same seed dealt differently")
	}
	if slices.Equal(a, c) {
		t.Error("different seeds dealt the same order")
	}
	for round := 0; round < len(a); round += 20 {
		got := slices.Clone(a[round : round+20])
		slices.Sort(got)
		for v := range got {
			if got[v] != v {
				t.Fatalf("round %d dealt %v", round/20, a[round:round+20])
			}
		}
	}
}

// TestDriftFeedLapsAdvanceEventTime checks that a repeated lap moves on
// in event time, so the monitors never see late events.
func TestDriftFeedLapsAdvanceEventTime(t *testing.T) {
	f := &driftFeed{seed: 3, lap: 200}
	first, err := f.next()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.next(); err != nil { // the first lap's second batch
		t.Fatal(err)
	}
	second, err := f.next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(first, []byte(`{"t":0,`)) || !bytes.HasPrefix(second, []byte(`{"t":2000,`)) {
		t.Errorf("lap starts: %.20q and %.20q", first, second)
	}
}

func TestParseJobTimes(t *testing.T) {
	st := jobStatus{
		ID:         "j1",
		CreatedAt:  "2026-10-16T10:00:00.000000001Z",
		StartedAt:  "2026-10-16T10:00:00.250Z",
		FinishedAt: "2026-10-16T12:00:01.5+02:00",
	}
	jt, err := parseJobTimes(st)
	if err != nil {
		t.Fatal(err)
	}
	if got := jt.started.Sub(jt.created); got != 250*time.Millisecond-time.Nanosecond {
		t.Errorf("queue wait %v", got)
	}
	if got := jt.finished.Sub(jt.started); got != 1250*time.Millisecond {
		t.Errorf("run time %v", got)
	}
	st.FinishedAt = ""
	if _, err := parseJobTimes(st); err == nil {
		t.Error("a job without finished_at parsed")
	}
}
