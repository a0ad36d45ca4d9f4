package monitor

import (
	"errors"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fpm"
)

// maxTransitions bounds the per-monitor transition log. SSE subscribers
// poll faster than buckets close, so a short ring is plenty; a subscriber
// that falls further behind than this simply misses the oldest
// transitions.
const maxTransitions = 256

// latencyEwmaLambda smooths the detection-latency counter (the time from
// batch arrival to the batch being folded into the window).
const latencyEwmaLambda = 0.2

// ErrMonitorStopped is returned for ingest into a deleted monitor.
var ErrMonitorStopped = errors.New("monitor: monitor is deleted")

// ingestBatch is one accepted ingest body on its way to the worker.
type ingestBatch struct {
	events []Event
	at     time.Time
}

// Transition is one alert state change, seq-stamped for SSE resumption.
type Transition struct {
	Seq        int64    `json:"seq"`
	TimeMs     int64    `json:"time_ms"` // event-time end of the closing bucket
	Itemset    []string `json:"itemset"`
	Metric     string   `json:"metric"`
	From       string   `json:"from"`
	To         string   `json:"to"`
	Divergence float64  `json:"divergence"`
	Z          float64  `json:"z"`
	Cusum      float64  `json:"cusum"`
}

// SubgroupStatus is one tracked subgroup in a snapshot.
type SubgroupStatus struct {
	Itemset    []string `json:"itemset"`
	Support    float64  `json:"support"`
	Rate       float64  `json:"rate"`
	Divergence float64  `json:"divergence"`
	Z          float64  `json:"z"`
	Cusum      float64  `json:"cusum"`
	State      string   `json:"state"`
}

// Counters are one monitor's observability counters.
type Counters struct {
	Events             int64   `json:"events"`
	EventsInvalid      int64   `json:"events_invalid"`
	DroppedFull        int64   `json:"events_dropped_full"`
	DroppedLate        int64   `json:"events_dropped_late"`
	Advances           int64   `json:"windows_advanced"`
	Remines            int64   `json:"remines"`
	Resets             int64   `json:"window_resets"`
	TrackedPatterns    int     `json:"tracked_patterns"`
	AlertsFiring       int     `json:"alerts_firing"`
	AlertsFired        int64   `json:"alerts_fired"`
	Transitions        int64   `json:"alert_transitions"`
	MineErrors         int64   `json:"mine_errors"`
	DetectionLatencyMs float64 `json:"detection_latency_ms"`
	QueueLen           int     `json:"queue_len"`
	QueueCap           int     `json:"queue_cap"`
}

// Snapshot is the serving view of one monitor: window position, the
// top-K divergent subgroups with their alert states, and counters.
type Snapshot struct {
	ID            string           `json:"id"`
	Name          string           `json:"name,omitempty"`
	CreatedAt     time.Time        `json:"created_at"`
	Spec          Spec             `json:"spec"`
	WindowRows    int              `json:"window_rows"`
	BucketsFilled int              `json:"window_buckets_filled"`
	WindowStartMs int64            `json:"window_start_ms"`
	BucketStartMs int64            `json:"current_bucket_start_ms"`
	GlobalRate    float64          `json:"global_rate"`
	Top           []SubgroupStatus `json:"top"`
	Counters      Counters         `json:"counters"`
}

// IngestResult reports what one ingest body yielded: events accepted
// into the buffer, lines rejected by validation, and a sample error.
type IngestResult struct {
	Accepted int    `json:"accepted"`
	Invalid  int    `json:"invalid"`
	Error    string `json:"error,omitempty"`
}

// Monitor is one live monitor: an immutable spec and parser, a bounded
// ingest queue drained by a single worker goroutine, and the mu-guarded
// window + detection state the worker and snapshot readers share.
type Monitor struct {
	ID        string
	CreatedAt time.Time

	spec   Spec
	parser *Parser
	metric core.Metric

	queue    chan ingestBatch
	stopc    chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	mu          sync.Mutex
	win         *window
	detectors   map[string]*detector
	transitions []Transition
	nextSeq     int64

	events      int64
	invalid     int64
	droppedFull int64
	alertsFired int64
	transCount  int64
	mineErrs    int64
	latEwmaNs   float64
}

// newMonitor builds a monitor for a validated spec and starts its worker.
func newMonitor(id string, spec Spec, queueDepth int, created time.Time) *Monitor {
	metric, err := core.MetricByName(spec.Metric)
	if err != nil {
		// Validate resolved the metric already; reaching here is a bug.
		// lint:ignore libprint invariant: Validate resolved the metric before the spec could reach newMonitor
		panic("monitor: spec with unresolvable metric: " + spec.Metric)
	}
	m := &Monitor{
		ID:        id,
		CreatedAt: created,
		spec:      spec,
		parser:    NewParser(spec),
		metric:    metric,
		queue:     make(chan ingestBatch, queueDepth),
		stopc:     make(chan struct{}),
		done:      make(chan struct{}),
		win:       newWindow(spec),
		detectors: make(map[string]*detector),
	}
	go m.run()
	return m
}

// Spec returns the monitor's validated spec.
func (m *Monitor) Spec() Spec { return m.spec }

// run drains the ingest queue until the monitor is stopped. Batches
// still queued at stop are dropped: window contents are lossy by
// contract, and deletion is terminal.
func (m *Monitor) run() {
	defer close(m.done)
	for {
		select {
		case <-m.stopc:
			return
		case b := <-m.queue:
			m.process(b)
		}
	}
}

// stop terminates the worker and waits for it to exit.
func (m *Monitor) stop() {
	m.stopOnce.Do(func() { close(m.stopc) })
	<-m.done
}

// Ingest validates one JSON-lines body and enqueues its events. Invalid
// lines are counted and skipped. A full queue rejects the whole batch
// with ErrIngestBackpressure; a deleted monitor with ErrMonitorStopped.
func (m *Monitor) Ingest(body []byte) (IngestResult, error) {
	b := m.parser.ParseBatch(body)
	res := IngestResult{Accepted: len(b.Events), Invalid: b.Invalid}
	if b.FirstErr != nil {
		res.Error = b.FirstErr.Error()
	}
	if b.Invalid > 0 {
		m.mu.Lock()
		m.invalid += int64(b.Invalid)
		m.mu.Unlock()
	}
	if len(b.Events) == 0 {
		select {
		case <-m.stopc:
			return res, ErrMonitorStopped
		default:
			return res, nil
		}
	}
	select {
	case <-m.stopc:
		res.Accepted = 0
		return res, ErrMonitorStopped
	default:
	}
	select {
	case m.queue <- ingestBatch{events: b.Events, at: time.Now()}:
		return res, nil
	case <-m.stopc:
		res.Accepted = 0
		return res, ErrMonitorStopped
	default:
		m.mu.Lock()
		m.droppedFull += int64(len(b.Events))
		m.mu.Unlock()
		res.Accepted = 0
		return res, ErrIngestBackpressure
	}
}

// process folds one batch into the window, evaluating detection at every
// bucket the batch closes.
func (m *Monitor) process(b ingestBatch) {
	m.mu.Lock()
	for i := range b.events {
		m.win.ingest(b.events[i], m)
	}
	m.events += int64(len(b.events))
	lat := float64(time.Since(b.at).Nanoseconds())
	// lint:ignore floatcmp exact zero marks "no sample yet"; the EWMA seeds from the first one
	if m.latEwmaNs == 0 {
		m.latEwmaNs = lat
	} else {
		m.latEwmaNs = (1-latencyEwmaLambda)*m.latEwmaNs + latencyEwmaLambda*lat
	}
	m.mu.Unlock()
}

// evaluate implements the window's evaluator callback: re-mine if the
// frequent set may have shifted, then push each tracked subgroup's
// divergence through its detector. Called with mu held (from process).
func (m *Monitor) evaluate(endMs int64) {
	w := m.win
	if w.rowsIn == 0 {
		return
	}
	minCount := w.minCount()
	if w.needRemine(minCount) {
		if err := w.remine(minCount); err != nil {
			m.mineErrs++
			return
		}
		m.pruneDetectors(endMs)
	}
	if math.IsNaN(m.metric.Rate(w.total)) {
		return
	}
	scorer := core.NewLeaderboard(w.total, w.rowsIn, m.metric, 0, core.ByAbsDivergence)
	for i := range w.tracked {
		t := &w.tracked[i]
		if t.tally.Total() < minCount {
			continue
		}
		rk, ok := scorer.Rank(t.items, t.tally)
		if !ok {
			continue
		}
		d := m.detectors[t.key]
		if d == nil {
			d = &detector{cfg: m.spec.Detection}
			m.detectors[t.key] = d
		}
		if from, to, changed := d.update(rk.Divergence); changed {
			m.record(endMs, t.items, d, from, to)
		}
	}
}

// pruneDetectors drops detectors whose subgroup is no longer tracked
// after a re-mine. A firing detector resolves on the way out so
// subscribers see the alert close rather than vanish.
func (m *Monitor) pruneDetectors(endMs int64) {
	tracked := make(map[string]bool, len(m.win.tracked))
	for i := range m.win.tracked {
		tracked[m.win.tracked[i].key] = true
	}
	var stale []string
	for k := range m.detectors {
		if !tracked[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale) // deterministic transition order
	for _, k := range stale {
		d := m.detectors[k]
		if d.state == StateFiring || d.state == StateWarning {
			from := d.state
			d.state = StateResolved
			d.lastStat = 0
			m.record(endMs, fpm.ParseKey(k), d, from, StateResolved)
		}
		delete(m.detectors, k)
	}
}

// record appends one transition to the seq-stamped ring, dropping the
// oldest entries past maxTransitions. Called with mu held.
func (m *Monitor) record(endMs int64, items fpm.Itemset, d *detector, from, to AlertState) {
	m.nextSeq++
	m.transCount++
	if to == StateFiring {
		m.alertsFired++
	}
	m.transitions = append(m.transitions, Transition{
		Seq:        m.nextSeq,
		TimeMs:     endMs,
		Itemset:    m.win.cat.Names(items),
		Metric:     m.spec.Metric,
		From:       from.String(),
		To:         to.String(),
		Divergence: d.lastDiv,
		Z:          d.lastZ,
		Cusum:      d.lastStat,
	})
	if n := len(m.transitions); n > maxTransitions {
		copy(m.transitions, m.transitions[n-maxTransitions:])
		m.transitions = m.transitions[:maxTransitions]
	}
}

// Snapshot assembles the serving view: window position, the top-K
// tracked subgroups, ranked as /analyze ranks (core.Leaderboard under
// ByAbsDivergence), and counters.
func (m *Monitor) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.win
	s := Snapshot{
		ID:            m.ID,
		Name:          m.spec.Name,
		CreatedAt:     m.CreatedAt,
		Spec:          m.spec,
		WindowRows:    w.rowsIn,
		BucketsFilled: w.count,
		BucketStartMs: w.curStart,
		WindowStartMs: w.curStart - int64(w.count-1)*w.cfg.BucketMs,
		Counters:      m.countersLocked(),
	}
	overall := m.metric.Rate(w.total)
	if math.IsNaN(overall) {
		return s
	}
	s.GlobalRate = overall
	minCount := w.minCount()
	lb := core.NewLeaderboard(w.total, w.rowsIn, m.metric, m.spec.TopK, core.ByAbsDivergence)
	for i := range w.tracked {
		if t := &w.tracked[i]; t.tally.Total() >= minCount {
			lb.Offer(t.items, t.tally)
		}
	}
	top := lb.Top()
	if len(top) > 0 {
		s.Top = make([]SubgroupStatus, len(top))
	}
	var key [4 * MaxAttrs]byte
	for i, rk := range top {
		st := SubgroupStatus{
			Itemset:    w.cat.Names(rk.Items),
			Support:    rk.Support,
			Rate:       rk.Rate,
			Divergence: rk.Divergence,
			State:      StateOK.String(),
		}
		if d := m.detectors[string(rk.Items.AppendKey(key[:0]))]; d != nil {
			st.Z, st.Cusum, st.State = d.lastZ, d.lastStat, d.state.String()
		}
		s.Top[i] = st
	}
	return s
}

// Counters returns the monitor's counters.
func (m *Monitor) Counters() Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.countersLocked()
}

// countersLocked assembles Counters; mu must be held.
func (m *Monitor) countersLocked() Counters {
	firing := 0
	for _, d := range m.detectors {
		if d.state == StateFiring {
			firing++
		}
	}
	return Counters{
		Events:             m.events,
		EventsInvalid:      m.invalid,
		DroppedFull:        m.droppedFull,
		DroppedLate:        m.win.lateDrops,
		Advances:           m.win.advances,
		Remines:            m.win.remines,
		Resets:             m.win.resetJumps,
		TrackedPatterns:    len(m.win.tracked),
		AlertsFiring:       firing,
		AlertsFired:        m.alertsFired,
		Transitions:        m.transCount,
		MineErrors:         m.mineErrs,
		DetectionLatencyMs: m.latEwmaNs / 1e6,
		QueueLen:           len(m.queue),
		QueueCap:           cap(m.queue),
	}
}

// TransitionsSince returns the logged transitions with Seq > seq, oldest
// first — the SSE poll read.
func (m *Monitor) TransitionsSince(seq int64) []Transition {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := sort.Search(len(m.transitions), func(i int) bool {
		return m.transitions[i].Seq > seq
	})
	if i == len(m.transitions) {
		return nil
	}
	out := make([]Transition, len(m.transitions)-i)
	copy(out, m.transitions[i:])
	return out
}
