// Package monitor turns the batch divergence auditor into a live
// classifier-behavior monitor: a stream of per-decision events (attribute
// values plus the classifier's outcome) is bucketed into event-time
// windows, per-subgroup outcome tallies are maintained incrementally, and
// each subgroup's divergence series is watched with EWMA smoothing and
// two-sided CUSUM change detection. A subgroup whose divergence shifts
// significantly walks an alert state machine (ok → warning → firing →
// resolved) with hysteresis on both edges, and every transition is pushed
// to subscribers over SSE.
//
// The architecture has four layers (DESIGN.md §13):
//
//   - ingest: batches of JSON-line events are validated against the
//     monitor's declared schema and enqueued on a bounded per-monitor
//     buffer; a full buffer is explicit backpressure
//     (ErrIngestBackpressure), mirroring the job queue's ErrQueueFull.
//   - windowing: a ring of event-time buckets. Tallies for the window's
//     tracked subgroups are incremented as events arrive and decremented
//     as buckets expire, so advancing the window is O(bucket), not
//     O(window). The frequent-pattern set itself is re-mined through
//     fpm's streaming pattern seam only when it may have shifted.
//   - detection: per-subgroup divergence series with EWMA baselines,
//     z-scores and two-sided CUSUM statistics, feeding the alert state
//     machine.
//   - serving: the Manager exposes create/get/delete plus snapshots and
//     a seq-stamped transition log that internal/server rides for SSE.
//
// Monitor specs are durable when a jobs.Store is attached: creation and
// deletion append WAL records, so monitors survive a restart with fresh
// (empty) windows — in-flight window contents are declared lossy.
package monitor

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/dataset"
)

// Bounds on a monitor spec. Attribute domains are capped at 255 values
// so window rows can store one byte per attribute.
const (
	MaxAttrs       = 64
	MaxCardinality = 255
	MaxBuckets     = 4096
	MaxPatternLen  = 6
)

// AttrSpec declares one attribute of the event schema: categorical
// (Values lists the domain) or numeric (Cuts gives ascending bin
// boundaries; values are discretized into len(Cuts)+1 bins). Exactly one
// of Values and Cuts must be set.
type AttrSpec struct {
	Name   string    `json:"name"`
	Values []string  `json:"values,omitempty"`
	Cuts   []float64 `json:"cuts,omitempty"`
}

// numeric reports whether the attribute discretizes numbers.
func (a *AttrSpec) numeric() bool { return len(a.Cuts) > 0 }

// cardinality returns the attribute's domain size.
func (a *AttrSpec) cardinality() int {
	if a.numeric() {
		return len(a.Cuts) + 1
	}
	return len(a.Values)
}

// bin returns the bin code for a numeric value: the number of cuts <= v.
func (a *AttrSpec) bin(v float64) uint8 {
	lo, hi := 0, len(a.Cuts)
	for lo < hi {
		mid := (lo + hi) / 2
		if v >= a.Cuts[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint8(lo)
}

// binLabels renders the numeric bins as half-open interval labels, the
// value names a mined subgroup reports.
func (a *AttrSpec) binLabels() []string {
	labels := make([]string, len(a.Cuts)+1)
	prev := "-inf"
	for i, c := range a.Cuts {
		cs := strconv.FormatFloat(c, 'g', -1, 64)
		labels[i] = "[" + prev + "," + cs + ")"
		prev = cs
	}
	labels[len(a.Cuts)] = "[" + prev + ",+inf)"
	return labels
}

// WindowConfig shapes the event-time window. A sliding window evaluates
// on every bucket close over the most recent Buckets buckets; a tumbling
// window evaluates once every Buckets buckets and then starts empty.
type WindowConfig struct {
	// BucketMs is the event-time width of one bucket in milliseconds.
	BucketMs int64 `json:"bucket_ms"`
	// Buckets is the window length in buckets.
	Buckets int `json:"buckets"`
	// Tumbling selects tumbling semantics (default sliding).
	Tumbling bool `json:"tumbling,omitempty"`
}

// DetectionConfig tunes the change detector. Zero values select the
// defaults noted on each field.
type DetectionConfig struct {
	// Lambda is the EWMA weight for the divergence baseline (default 0.2).
	Lambda float64 `json:"lambda,omitempty"`
	// K is the CUSUM slack in standard deviations (default 0.5).
	K float64 `json:"k,omitempty"`
	// H is the CUSUM alarm threshold (default 5).
	H float64 `json:"h,omitempty"`
	// WarnRatio scales H down to the warning threshold (default 0.6).
	WarnRatio float64 `json:"warn_ratio,omitempty"`
	// ResolveRatio scales H down to the resolve threshold (default 0.5).
	ResolveRatio float64 `json:"resolve_ratio,omitempty"`
	// MinSamples is the warmup length: evaluations that only feed the
	// baseline before any alerting starts (default 8).
	MinSamples int `json:"min_samples,omitempty"`
	// FiringStreak is how many consecutive evaluations must exceed H
	// before warning escalates to firing (default 2) — the rising-edge
	// hysteresis.
	FiringStreak int `json:"firing_streak,omitempty"`
	// ResolveStreak is how many consecutive evaluations must sit below
	// ResolveRatio*H before firing resolves (default 3) — the
	// falling-edge hysteresis.
	ResolveStreak int `json:"resolve_streak,omitempty"`
}

// withDefaults fills zero fields with the documented defaults.
func (d DetectionConfig) withDefaults() DetectionConfig {
	// lint:ignore floatcmp exact zero means "unset, take the default"
	if d.Lambda == 0 {
		d.Lambda = 0.2
	}
	// lint:ignore floatcmp exact zero means "unset, take the default"
	if d.K == 0 {
		d.K = 0.5
	}
	// lint:ignore floatcmp exact zero means "unset, take the default"
	if d.H == 0 {
		d.H = 5
	}
	// lint:ignore floatcmp exact zero means "unset, take the default"
	if d.WarnRatio == 0 {
		d.WarnRatio = 0.6
	}
	// lint:ignore floatcmp exact zero means "unset, take the default"
	if d.ResolveRatio == 0 {
		d.ResolveRatio = 0.5
	}
	if d.MinSamples == 0 {
		d.MinSamples = 8
	}
	if d.FiringStreak == 0 {
		d.FiringStreak = 2
	}
	if d.ResolveStreak == 0 {
		d.ResolveStreak = 3
	}
	return d
}

// Spec declares a monitor: the event schema, the mining parameters of the
// windowed divergence analysis, and the detection tuning.
type Spec struct {
	// Name is a human label; it need not be unique.
	Name string `json:"name,omitempty"`
	// Attributes declares the event schema.
	Attributes []AttrSpec `json:"attributes"`
	// Metric names the divergence metric (core.MetricByName; default FPR).
	Metric string `json:"metric,omitempty"`
	// MinSupport is the relative support threshold for tracked subgroups
	// within the window (default 0.05).
	MinSupport float64 `json:"min_support,omitempty"`
	// MaxLen caps tracked subgroup size in items (default 3).
	MaxLen int `json:"max_len,omitempty"`
	// TopK bounds the divergent-subgroup list in snapshots (default 10).
	TopK int `json:"top_k,omitempty"`
	// Window configures bucketing.
	Window WindowConfig `json:"window"`
	// Detection configures the change detector.
	Detection DetectionConfig `json:"detection,omitempty"`
}

// withDefaults returns the spec with zero fields defaulted.
func (s Spec) withDefaults() Spec {
	if s.Metric == "" {
		s.Metric = "FPR"
	}
	// lint:ignore floatcmp exact zero means "unset, take the default"
	if s.MinSupport == 0 {
		s.MinSupport = 0.05
	}
	if s.MaxLen == 0 {
		s.MaxLen = 3
	}
	if s.TopK == 0 {
		s.TopK = 10
	}
	s.Detection = s.Detection.withDefaults()
	return s
}

// Validate checks the spec after defaulting. The returned spec is the
// defaulted form; Manager.Create persists and uses it.
func (s Spec) Validate() (Spec, error) {
	s = s.withDefaults()
	if len(s.Attributes) == 0 || len(s.Attributes) > MaxAttrs {
		return s, fmt.Errorf("monitor: %d attributes (want 1..%d)", len(s.Attributes), MaxAttrs)
	}
	seen := make(map[string]bool, len(s.Attributes))
	for i := range s.Attributes {
		a := &s.Attributes[i]
		if a.Name == "" {
			return s, fmt.Errorf("monitor: attribute %d has no name", i)
		}
		if seen[a.Name] {
			return s, fmt.Errorf("monitor: duplicate attribute %q", a.Name)
		}
		seen[a.Name] = true
		if (len(a.Values) == 0) == (len(a.Cuts) == 0) {
			return s, fmt.Errorf("monitor: attribute %q must set exactly one of values and cuts", a.Name)
		}
		if a.numeric() {
			for j := 1; j < len(a.Cuts); j++ {
				if !(a.Cuts[j-1] < a.Cuts[j]) {
					return s, fmt.Errorf("monitor: attribute %q cuts must be strictly ascending", a.Name)
				}
			}
			for _, c := range a.Cuts {
				if math.IsNaN(c) || math.IsInf(c, 0) {
					return s, fmt.Errorf("monitor: attribute %q has a non-finite cut", a.Name)
				}
			}
		} else {
			vals := make(map[string]bool, len(a.Values))
			for _, v := range a.Values {
				if v == "" {
					return s, fmt.Errorf("monitor: attribute %q has an empty value", a.Name)
				}
				if vals[v] {
					return s, fmt.Errorf("monitor: attribute %q has duplicate value %q", a.Name, v)
				}
				vals[v] = true
			}
		}
		if c := a.cardinality(); c < 2 || c > MaxCardinality {
			return s, fmt.Errorf("monitor: attribute %q cardinality %d (want 2..%d)", a.Name, c, MaxCardinality)
		}
	}
	if _, err := core.MetricByName(s.Metric); err != nil {
		return s, fmt.Errorf("monitor: %w", err)
	}
	if s.MinSupport <= 0 || s.MinSupport > 1 {
		return s, fmt.Errorf("monitor: min_support %v out of (0,1]", s.MinSupport)
	}
	if s.MaxLen < 1 || s.MaxLen > MaxPatternLen {
		return s, fmt.Errorf("monitor: max_len %d (want 1..%d)", s.MaxLen, MaxPatternLen)
	}
	if s.TopK < 1 {
		return s, fmt.Errorf("monitor: top_k %d < 1", s.TopK)
	}
	if s.Window.BucketMs < 1 {
		return s, fmt.Errorf("monitor: window.bucket_ms %d < 1", s.Window.BucketMs)
	}
	if s.Window.Buckets < 1 || s.Window.Buckets > MaxBuckets {
		return s, fmt.Errorf("monitor: window.buckets %d (want 1..%d)", s.Window.Buckets, MaxBuckets)
	}
	d := s.Detection
	switch {
	case d.Lambda <= 0 || d.Lambda > 1:
		return s, fmt.Errorf("monitor: detection.lambda %v out of (0,1]", d.Lambda)
	case d.K < 0 || math.IsNaN(d.K) || math.IsInf(d.K, 0):
		return s, fmt.Errorf("monitor: detection.k %v must be finite and >= 0", d.K)
	case d.H <= 0 || math.IsNaN(d.H) || math.IsInf(d.H, 0):
		return s, fmt.Errorf("monitor: detection.h %v must be finite and > 0", d.H)
	case d.WarnRatio <= 0 || d.WarnRatio > 1:
		return s, fmt.Errorf("monitor: detection.warn_ratio %v out of (0,1]", d.WarnRatio)
	case d.ResolveRatio <= 0 || d.ResolveRatio > 1:
		return s, fmt.Errorf("monitor: detection.resolve_ratio %v out of (0,1]", d.ResolveRatio)
	case d.MinSamples < 1:
		return s, fmt.Errorf("monitor: detection.min_samples %d < 1", d.MinSamples)
	case d.FiringStreak < 1 || d.ResolveStreak < 1:
		return s, fmt.Errorf("monitor: detection streaks must be >= 1")
	}
	return s, nil
}

// ParseSpec decodes and validates a JSON monitor spec.
func ParseSpec(raw []byte) (Spec, error) {
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("monitor: decoding spec: %w", err)
	}
	return s.Validate()
}

// schema materializes the spec's attribute declarations as the dataset
// schema backing the monitor's item catalog and its re-mines: numeric
// attributes contribute their bin labels, categorical ones their values
// in the declared order (codes are positional, so the order is part of
// the monitor's identity and is never re-sorted).
func (s Spec) schema() []dataset.Attribute {
	attrs := make([]dataset.Attribute, len(s.Attributes))
	for i := range s.Attributes {
		a := &s.Attributes[i]
		attrs[i] = dataset.Attribute{Name: a.Name}
		if a.numeric() {
			attrs[i].Values = a.binLabels()
		} else {
			attrs[i].Values = append([]string(nil), a.Values...)
		}
	}
	return attrs
}

// sortedAttrNames lists the schema's attribute names in sorted order
// (diagnostics only).
func (s Spec) sortedAttrNames() []string {
	names := make([]string, 0, len(s.Attributes))
	for i := range s.Attributes {
		names = append(names, s.Attributes[i].Name)
	}
	sort.Strings(names)
	return names
}
