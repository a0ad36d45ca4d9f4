package monitor

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/datagen"
)

// BenchmarkMonitorIngest measures the full ingest path — JSON-lines
// parsing, queue handoff, and the worker folding events into the window —
// in events per op (one op = one 100-event batch).
func BenchmarkMonitorIngest(b *testing.B) {
	s, err := datagen.Drift(1, datagen.DriftConfig{Events: 100, StepMs: 1})
	if err != nil {
		b.Fatal(err)
	}
	body := s.Body(0, 100)

	mgr := NewManager(Config{QueueDepth: 256})
	defer mgr.Close()
	spec := driftSpec()
	spec.Window.BucketMs = 100 // one advance per ingested body
	m, err := mgr.Create(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			if _, err := m.Ingest(body); !errors.Is(err, ErrIngestBackpressure) {
				break
			}
			time.Sleep(10 * time.Microsecond)
		}
	}
	b.StopTimer()
	awaitDrained(b, m)
}

// BenchmarkParseBatch measures the ingest decoder alone: ParseBatch on
// one 100-event Drift body, with no queue and no worker, so its
// allocs/op repeat exactly — the []Event and the code arena, and
// nothing per event.
func BenchmarkParseBatch(b *testing.B) {
	body := driftBody(b)
	spec, err := driftSpec().Validate()
	if err != nil {
		b.Fatal(err)
	}
	p := NewParser(spec)
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batchSink = p.ParseBatch(body)
	}
	b.StopTimer()
	if len(batchSink.Events) != 100 || batchSink.Invalid != 0 {
		b.Fatalf("decoded %d events, %d invalid; want 100, 0", len(batchSink.Events), batchSink.Invalid)
	}
}

// batchSink keeps BenchmarkParseBatch's result live.
var batchSink Batch

// BenchmarkMonitorSnapshot measures one snapshot read of a monitor of
// the end-to-end benchmark's shape: 4 attributes of 3 values, subgroups
// of up to 3 items, a sliding window of 8 × 500 ms buckets, full. The
// window is filled before the timer starts and nothing is ingested
// after, so allocs/op repeat exactly.
func BenchmarkMonitorSnapshot(b *testing.B) {
	spec := Spec{
		Name:       "snapshot",
		Metric:     "FPR",
		MaxLen:     3,
		MinSupport: 0.05,
		Window:     WindowConfig{BucketMs: 500, Buckets: 8},
	}
	for a := 0; a < 4; a++ {
		vals := make([]string, 3)
		for v := range vals {
			vals[v] = fmt.Sprintf("a%d_v%d", a, v)
		}
		spec.Attributes = append(spec.Attributes, AttrSpec{Name: fmt.Sprintf("attr%d", a), Values: vals})
	}
	s, err := datagen.Drift(1, datagen.DriftConfig{Events: 1000, Attrs: 4, Card: 3})
	if err != nil {
		b.Fatal(err)
	}
	mgr := NewManager(Config{})
	defer mgr.Close()
	m, err := mgr.Create(spec)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Ingest(s.Body(0, len(s.Events))); err != nil {
		b.Fatal(err)
	}
	awaitEvents(b, m, int64(len(s.Events)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapshotSink = m.Snapshot()
	}
	b.StopTimer()
	b.ReportMetric(float64(snapshotSink.Counters.TrackedPatterns), "tracked")
}

// snapshotSink keeps BenchmarkMonitorSnapshot's result live.
var snapshotSink Snapshot

func awaitDrained(b *testing.B, m *Monitor) {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if m.Counters().QueueLen == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	b.Fatal("worker never drained")
}

// BenchmarkWindowAdvance measures the raw window engine: steady-state
// ingest at a fixed per-bucket row count across window lengths. The
// advance is O(bucket), so ns/op must stay flat as the window grows —
// the acceptance criterion for the incremental design.
func BenchmarkWindowAdvance(b *testing.B) {
	const rowsPerBucket = 200
	for _, buckets := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("win=%d", buckets), func(b *testing.B) {
			spec := driftSpec()
			spec.Window = WindowConfig{BucketMs: 100, Buckets: buckets}
			vs, err := spec.Validate()
			if err != nil {
				b.Fatal(err)
			}
			w := newWindow(vs)
			rng := rand.New(rand.NewSource(9))
			events := make([]Event, rowsPerBucket)
			for i := range events {
				events[i] = randomDriftEvent(rng)
			}
			// Prefill the full ring and mine once so the steady-state loop
			// pays the real apply cost: total + per-item + tracked tallies.
			tms := int64(0)
			for f := 0; f < buckets; f++ {
				for r := range events {
					ev := events[r]
					ev.T = tms
					w.ingest(ev, nopEval{})
				}
				tms += vs.Window.BucketMs
			}
			if err := w.remine(w.minCount()); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := events[i%rowsPerBucket]
				ev.T = tms
				w.ingest(ev, nopEval{})
				if (i+1)%rowsPerBucket == 0 {
					tms += vs.Window.BucketMs
				}
			}
		})
	}
}

// randomDriftEvent draws a valid event for the driftSpec schema.
func randomDriftEvent(rng *rand.Rand) Event {
	return Event{
		Vals:  []uint8{uint8(rng.Intn(3)), uint8(rng.Intn(3)), uint8(rng.Intn(3))},
		Class: uint8(rng.Intn(4)),
	}
}
