package monitor

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
)

// driftSpec matches the datagen.Drift default schema: three categorical
// attributes attr0..attr2 with values aN_v0..aN_v2.
func driftSpec() Spec {
	return Spec{
		Name: "drift",
		Attributes: []AttrSpec{
			{Name: "attr0", Values: []string{"a0_v0", "a0_v1", "a0_v2"}},
			{Name: "attr1", Values: []string{"a1_v0", "a1_v1", "a1_v2"}},
			{Name: "attr2", Values: []string{"a2_v0", "a2_v1", "a2_v2"}},
		},
		Metric: "FPR",
		// Singletons only (the planted subgroup is one attribute) and a
		// tumbling window: sliding evaluations overlap, so their divergence
		// observations are autocorrelated and noise streaks inflate CUSUM;
		// tumbles give the detector the independent samples it assumes.
		MaxLen:     1,
		Window:     WindowConfig{BucketMs: 500, Buckets: 8, Tumbling: true},
		Detection:  DetectionConfig{MinSamples: 10, H: 8},
		MinSupport: 0.05,
	}
}

// awaitEvents polls until the monitor's worker has folded in n events.
func awaitEvents(t testing.TB, m *Monitor, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m.Counters().Events >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("worker processed %d of %d events before timeout", m.Counters().Events, n)
}

// ingestStream feeds a drift stream to the monitor in per-bucket batches,
// retrying on backpressure, and waits for the worker to drain.
func ingestStream(t *testing.T, m *Monitor, s *datagen.DriftStream, batch int) {
	t.Helper()
	accepted := int64(0)
	for from := 0; from < len(s.Events); from += batch {
		to := from + batch
		if to > len(s.Events) {
			to = len(s.Events)
		}
		body := s.Body(from, to)
		for {
			res, err := m.Ingest(body)
			if errors.Is(err, ErrIngestBackpressure) {
				time.Sleep(time.Millisecond)
				continue
			}
			if err != nil {
				t.Fatalf("Ingest: %v", err)
			}
			if res.Invalid != 0 {
				t.Fatalf("generator produced invalid lines: %+v", res)
			}
			accepted += int64(res.Accepted)
			break
		}
	}
	awaitEvents(t, m, accepted)
}

func hasSubgroup(itemset []string, want string) bool {
	for _, it := range itemset {
		if it == want {
			return true
		}
	}
	return false
}

// TestMonitorDetectsPlantedDrift is the package-level end-to-end check:
// a seeded stream whose attr0=a0_v0 subgroup's FPR jumps mid-stream must
// raise a firing alert on that subgroup, and the matching control stream
// (same seed, no shift) must stay silent.
func TestMonitorDetectsPlantedDrift(t *testing.T) {
	const (
		seed   = 42
		events = 12000
		batch  = 100 // one bucket's worth per body (StepMs 10 × 100 = BucketMs)
	)
	gen := func(shiftAt int) *datagen.DriftStream {
		s, err := datagen.Drift(seed, datagen.DriftConfig{
			Events:  events,
			ShiftAt: shiftAt,
		})
		if err != nil {
			t.Fatalf("Drift: %v", err)
		}
		return s
	}

	mgr := NewManager(Config{})
	defer mgr.Close()

	drifted, err := mgr.Create(driftSpec())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	control, err := mgr.Create(driftSpec())
	if err != nil {
		t.Fatalf("Create control: %v", err)
	}

	ingestStream(t, drifted, gen(events/2), batch)
	ingestStream(t, control, gen(events), batch) // ShiftAt == Events: no drift

	// The drifted monitor must have fired on the planted subgroup.
	fired := false
	for _, tr := range drifted.TransitionsSince(0) {
		if tr.To == "firing" && hasSubgroup(tr.Itemset, "attr0=a0_v0") {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatalf("no firing transition on attr0=a0_v0; transitions: %+v, counters: %+v",
			drifted.TransitionsSince(0), drifted.Counters())
	}

	// The planted subgroup must surface in the snapshot's top list with a
	// positive FPR divergence.
	snap := drifted.Snapshot()
	found := false
	for _, sg := range snap.Top {
		if len(sg.Itemset) == 1 && sg.Itemset[0] == "attr0=a0_v0" {
			found = true
			if sg.Divergence <= 0 {
				t.Errorf("planted subgroup divergence %v, want > 0", sg.Divergence)
			}
		}
	}
	if !found {
		t.Errorf("planted subgroup missing from snapshot top: %+v", snap.Top)
	}

	// The control stream must never fire, on any subgroup.
	for _, tr := range control.TransitionsSince(0) {
		if tr.To == "firing" {
			t.Fatalf("control stream fired: %+v", tr)
		}
	}
	if c := control.Counters(); c.AlertsFired != 0 {
		t.Fatalf("control alerts_fired = %d, want 0", c.AlertsFired)
	}
}

func TestMonitorBackpressure(t *testing.T) {
	mgr := NewManager(Config{QueueDepth: 1})
	defer mgr.Close()
	m, err := mgr.Create(driftSpec())
	if err != nil {
		t.Fatal(err)
	}
	line := []byte(`{"t":0,"attrs":{"attr0":"a0_v0","attr1":"a1_v0","attr2":"a2_v0"},"truth":0,"pred":0}`)

	// Stall the worker by holding mu (process() needs it), leaving the
	// 1-slot queue as the only buffer. The ingest side runs in a separate
	// goroutine because the backpressure accounting takes mu too.
	m.mu.Lock()
	done := make(chan bool, 1)
	go func() {
		// Attempt 1 fills the queue (or hands straight to the stalled
		// worker); by attempt 3 the queue must be full.
		for i := 0; i < 3; i++ {
			if _, err := m.Ingest(line); errors.Is(err, ErrIngestBackpressure) {
				done <- true
				return
			}
		}
		done <- false
	}()
	// Give the goroutine time to hit the full queue (it then blocks on mu
	// inside the backpressure branch until we release it).
	time.Sleep(50 * time.Millisecond)
	m.mu.Unlock()
	if !<-done {
		t.Fatal("queue depth 1 with a stalled worker never returned ErrIngestBackpressure")
	}
	if m.Counters().DroppedFull == 0 {
		t.Error("backpressure did not count dropped events")
	}
}

func TestMonitorIngestInvalidLines(t *testing.T) {
	mgr := NewManager(Config{})
	defer mgr.Close()
	m, err := mgr.Create(driftSpec())
	if err != nil {
		t.Fatal(err)
	}
	body := []byte("not json\n" +
		`{"t":0,"attrs":{"attr0":"a0_v0","attr1":"a1_v0","attr2":"a2_v0"},"truth":1,"pred":1}` + "\n")
	res, err := m.Ingest(body)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if res.Accepted != 1 || res.Invalid != 1 || res.Error == "" {
		t.Fatalf("result %+v, want 1 accepted, 1 invalid, sampled error", res)
	}
	awaitEvents(t, m, 1)
	if c := m.Counters(); c.EventsInvalid != 1 {
		t.Fatalf("events_invalid = %d, want 1", c.EventsInvalid)
	}
}

func TestMonitorIngestAfterDelete(t *testing.T) {
	mgr := NewManager(Config{})
	defer mgr.Close()
	m, err := mgr.Create(driftSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Delete(m.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	line := []byte(`{"t":0,"attrs":{"attr0":"a0_v0","attr1":"a1_v0","attr2":"a2_v0"},"truth":0,"pred":0}`)
	if _, err := m.Ingest(line); !errors.Is(err, ErrMonitorStopped) {
		t.Fatalf("Ingest after delete: %v, want ErrMonitorStopped", err)
	}
}

// TestMonitorConcurrentIngestSnapshotDelete exercises ingest, snapshot
// reads, SSE-style transition polling, and deletion all racing — the
// -race tier's main course.
func TestMonitorConcurrentIngestSnapshotDelete(t *testing.T) {
	s, err := datagen.Drift(7, datagen.DriftConfig{Events: 4000, ShiftAt: 1000})
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(Config{})
	defer mgr.Close()
	m, err := mgr.Create(driftSpec())
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Two ingest goroutines racing over disjoint halves of the stream.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(from, to int) {
			defer wg.Done()
			for i := from; i < to; i += 50 {
				end := i + 50
				if end > to {
					end = to
				}
				if _, err := m.Ingest(s.Body(i, end)); err != nil {
					return // stopped or backpressured: both fine here
				}
			}
		}(g*2000, (g+1)*2000)
	}
	// A reader hammering the serving surface.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var seq int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = m.Snapshot()
			_ = m.Counters()
			for _, tr := range m.TransitionsSince(seq) {
				if tr.Seq <= seq {
					t.Error("TransitionsSince returned a stale seq")
					return
				}
				seq = tr.Seq
			}
		}
	}()
	// Delete mid-flight.
	time.Sleep(5 * time.Millisecond)
	if err := mgr.Delete(m.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	close(stop)
	wg.Wait()

	if _, ok := mgr.Get(m.ID); ok {
		t.Fatal("deleted monitor still listed")
	}
	// Post-delete reads must still be safe (deleted monitors keep
	// serving their final state to in-flight handlers).
	_ = m.Snapshot()
	if _, err := m.Ingest(s.Body(0, 1)); !errors.Is(err, ErrMonitorStopped) {
		t.Fatalf("ingest after delete: %v", err)
	}
}

func TestTransitionsSinceSeqWindow(t *testing.T) {
	mgr := NewManager(Config{})
	defer mgr.Close()
	m, err := mgr.Create(driftSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Fabricate transitions through the internal recorder to check ring
	// trimming and resumption without driving real detections.
	m.mu.Lock()
	d := &detector{cfg: m.spec.Detection}
	for i := 0; i < maxTransitions+10; i++ {
		m.record(int64(i), nil, d, StateOK, StateWarning)
	}
	m.mu.Unlock()

	all := m.TransitionsSince(0)
	if len(all) != maxTransitions {
		t.Fatalf("ring holds %d, want %d", len(all), maxTransitions)
	}
	if all[0].Seq != 11 {
		t.Fatalf("oldest retained seq = %d, want 11", all[0].Seq)
	}
	tail := m.TransitionsSince(all[len(all)-1].Seq - 2)
	if len(tail) != 2 {
		t.Fatalf("resumption returned %d transitions, want 2", len(tail))
	}
	if got := m.TransitionsSince(all[len(all)-1].Seq); got != nil {
		t.Fatalf("caught-up subscriber got %d transitions, want none", len(got))
	}
}

func TestSnapshotTopKOrderedByAbsDivergence(t *testing.T) {
	mgr := NewManager(Config{})
	defer mgr.Close()
	m, err := mgr.Create(driftSpec())
	if err != nil {
		t.Fatal(err)
	}
	s, err := datagen.Drift(11, datagen.DriftConfig{Events: 6000, ShiftAt: 2000})
	if err != nil {
		t.Fatal(err)
	}
	ingestStream(t, m, s, 100)
	snap := m.Snapshot()
	if len(snap.Top) == 0 {
		t.Fatal("empty top list after 6000 events")
	}
	if len(snap.Top) > m.spec.TopK {
		t.Fatalf("top has %d entries, spec.TopK is %d", len(snap.Top), m.spec.TopK)
	}
	for i := 1; i < len(snap.Top); i++ {
		a, b := snap.Top[i-1], snap.Top[i]
		if abs(a.Divergence) < abs(b.Divergence) {
			t.Fatalf("top not sorted by |divergence|: %v before %v", a.Divergence, b.Divergence)
		}
	}
	for _, sg := range snap.Top {
		for _, it := range sg.Itemset {
			if !strings.Contains(it, "=") {
				t.Fatalf("itemset entry %q not in attr=value form", it)
			}
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
