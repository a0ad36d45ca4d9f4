// Package admission is the multi-tenant admission-control layer: it
// decides, per tenant, whether a job submission may enter the engine at
// all (token-bucket rate limits, active-job and byte quotas) and in
// what order admitted work is served (weighted fair queueing). The job
// engine consults a Controller in its submit, before it logs and queues
// a job, and the serving layer surfaces a denial as HTTP 429 with a
// Retry-After hint; the FairQueue replaces the engine's FIFO so one
// tenant's burst cannot starve the others.
//
// The package is self-contained — no imports from the jobs or server
// layers — so its tests and the chaos harness can exercise admission
// policy in isolation.
package admission

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// DefaultTenant is the tenant bucket for requests that carry no tenant
// identity.
const DefaultTenant = "default"

// Limits is one tenant's admission policy. Zero-valued fields are
// unlimited (rate, jobs, bytes) or defaulted (weight 1).
type Limits struct {
	// Weight is the tenant's fair-queue share; tenants drain the queue in
	// proportion to their weights. Defaults to 1 when <= 0.
	Weight float64 `json:"weight,omitempty"`
	// JobsPerSec is the token-bucket refill rate for submissions;
	// <= 0 means unlimited.
	JobsPerSec float64 `json:"jobs_per_sec,omitempty"`
	// Burst is the bucket capacity; defaults to max(1, JobsPerSec).
	Burst float64 `json:"burst,omitempty"`
	// MaxActive bounds the tenant's concurrently admitted (queued or
	// running) jobs; <= 0 means unlimited.
	MaxActive int `json:"max_active,omitempty"`
	// MaxBytes bounds the total dataset bytes the tenant may have
	// admitted at once; <= 0 means unlimited.
	MaxBytes int64 `json:"max_bytes,omitempty"`
}

// Denied is the admission refusal: which tenant, why, and how long to
// back off. The serving layer maps it to 429 with a Retry-After header.
type Denied struct {
	Tenant     string
	Reason     string // "rate" | "active-jobs" | "bytes"
	RetryAfter time.Duration
}

func (d *Denied) Error() string {
	return fmt.Sprintf("admission: tenant %q denied (%s), retry after %s", d.Tenant, d.Reason, d.RetryAfter)
}

// TenantStats is one tenant's row in /statsz, sorted by Tenant in
// Controller.Stats — part of the statsz determinism contract.
type TenantStats struct {
	Tenant        string  `json:"tenant"`
	Weight        float64 `json:"weight"`
	ActiveJobs    int     `json:"active_jobs"`
	ActiveBytes   int64   `json:"active_bytes"`
	Admitted      int64   `json:"admitted"`
	DeniedRate    int64   `json:"denied_rate"`
	DeniedJobs    int64   `json:"denied_jobs"`
	DeniedBytes   int64   `json:"denied_bytes"`
	TokensPending float64 `json:"tokens_pending"`
}

// tenantState is the mutable half of one tenant's bucket.
type tenantState struct {
	limits Limits

	tokens     float64
	lastRefill time.Time

	activeJobs  int
	activeBytes int64

	admitted    int64
	deniedRate  int64
	deniedJobs  int64
	deniedBytes int64
}

// Controller applies per-tenant admission policy. All methods are safe
// for concurrent use.
type Controller struct {
	defaults Limits
	now      func() time.Time

	mu      sync.Mutex
	tenants map[string]*tenantState
}

// NewController builds a controller with a default policy and optional
// per-tenant overrides. A nil now uses the real clock.
func NewController(defaults Limits, perTenant map[string]Limits, now func() time.Time) *Controller {
	if now == nil {
		now = time.Now
	}
	c := &Controller{defaults: defaults, now: now, tenants: make(map[string]*tenantState)}
	for tenant, lim := range perTenant {
		c.tenants[tenant] = c.newState(lim)
	}
	return c
}

func (c *Controller) newState(lim Limits) *tenantState {
	if lim.Weight <= 0 {
		lim.Weight = 1
	}
	if lim.JobsPerSec > 0 && lim.Burst <= 0 {
		lim.Burst = math.Max(1, lim.JobsPerSec)
	}
	return &tenantState{limits: lim, tokens: lim.Burst, lastRefill: c.now()}
}

// state returns (creating on first sight) the tenant's bucket. Caller
// holds c.mu.
func (c *Controller) state(tenant string) *tenantState {
	ts, ok := c.tenants[tenant]
	if !ok {
		ts = c.newState(c.defaults)
		c.tenants[tenant] = ts
	}
	return ts
}

// refill tops up the token bucket for elapsed time. Caller holds c.mu.
func (ts *tenantState) refill(now time.Time) {
	if ts.limits.JobsPerSec <= 0 {
		return
	}
	elapsed := now.Sub(ts.lastRefill).Seconds()
	if elapsed <= 0 {
		return
	}
	ts.tokens = math.Min(ts.limits.Burst, ts.tokens+elapsed*ts.limits.JobsPerSec)
	ts.lastRefill = now
}

// Admit charges one job of size bytes against tenant's budget. On
// success the job occupies one active slot and bytes quota until
// Release. On refusal it returns a *Denied with a Retry-After hint and
// charges nothing.
func (c *Controller) Admit(tenant string, bytes int64) error {
	if tenant == "" {
		tenant = DefaultTenant
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ts := c.state(tenant)
	now := c.now()
	ts.refill(now)

	if lim := ts.limits; lim.MaxActive > 0 && ts.activeJobs >= lim.MaxActive {
		ts.deniedJobs++
		return &Denied{Tenant: tenant, Reason: "active-jobs", RetryAfter: time.Second}
	}
	if lim := ts.limits; lim.MaxBytes > 0 && ts.activeBytes+bytes > lim.MaxBytes {
		ts.deniedBytes++
		return &Denied{Tenant: tenant, Reason: "bytes", RetryAfter: time.Second}
	}
	if lim := ts.limits; lim.JobsPerSec > 0 && ts.tokens < 1 {
		ts.deniedRate++
		wait := time.Duration((1 - ts.tokens) / lim.JobsPerSec * float64(time.Second))
		if wait < time.Second {
			wait = time.Second // Retry-After has whole-second resolution
		}
		return &Denied{Tenant: tenant, Reason: "rate", RetryAfter: wait}
	}
	if ts.limits.JobsPerSec > 0 {
		ts.tokens--
	}
	ts.activeJobs++
	ts.activeBytes += bytes
	ts.admitted++
	return nil
}

// Release returns a previously admitted job's slot and bytes. The job
// engine calls it when the job reaches a terminal state (or when the
// log append or enqueue that followed admission failed).
func (c *Controller) Release(tenant string, bytes int64) {
	if tenant == "" {
		tenant = DefaultTenant
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ts := c.state(tenant)
	if ts.activeJobs > 0 {
		ts.activeJobs--
	}
	ts.activeBytes -= bytes
	if ts.activeBytes < 0 {
		ts.activeBytes = 0
	}
}

// Weight returns the tenant's fair-queue weight (the default policy's
// weight for tenants never seen).
func (c *Controller) Weight(tenant string) float64 {
	if tenant == "" {
		tenant = DefaultTenant
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ts, ok := c.tenants[tenant]; ok {
		return ts.limits.Weight
	}
	if c.defaults.Weight > 0 {
		return c.defaults.Weight
	}
	return 1
}

// Stats snapshots every tenant bucket, sorted by tenant name.
func (c *Controller) Stats() []TenantStats {
	c.mu.Lock()
	out := make([]TenantStats, 0, len(c.tenants))
	now := c.now()
	for tenant, ts := range c.tenants {
		ts.refill(now)
		out = append(out, TenantStats{
			Tenant:        tenant,
			Weight:        ts.limits.Weight,
			ActiveJobs:    ts.activeJobs,
			ActiveBytes:   ts.activeBytes,
			Admitted:      ts.admitted,
			DeniedRate:    ts.deniedRate,
			DeniedJobs:    ts.deniedJobs,
			DeniedBytes:   ts.deniedBytes,
			TokensPending: ts.tokens,
		})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// ParseLimits parses the -tenant-quotas flag value: semicolon-separated
// tenant clauses, each "tenant:key=value,key=value" with keys weight,
// rate, burst, jobs, bytes. The tenant "*" sets the default policy for
// tenants not listed. Example:
//
//	*:rate=10;alpha:weight=3,rate=50,burst=100;beta:jobs=2,bytes=1048576
func ParseLimits(s string) (defaults Limits, perTenant map[string]Limits, err error) {
	perTenant = make(map[string]Limits)
	if strings.TrimSpace(s) == "" {
		return defaults, perTenant, nil
	}
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		tenant, spec, ok := strings.Cut(clause, ":")
		if !ok || strings.TrimSpace(tenant) == "" {
			return defaults, nil, fmt.Errorf("admission: malformed quota clause %q (want tenant:key=value,...)", clause)
		}
		tenant = strings.TrimSpace(tenant)
		var lim Limits
		for _, kv := range strings.Split(spec, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return defaults, nil, fmt.Errorf("admission: malformed quota entry %q in clause %q", kv, clause)
			}
			switch strings.TrimSpace(k) {
			case "weight":
				lim.Weight, err = strconv.ParseFloat(v, 64)
			case "rate":
				lim.JobsPerSec, err = strconv.ParseFloat(v, 64)
			case "burst":
				lim.Burst, err = strconv.ParseFloat(v, 64)
			case "jobs":
				lim.MaxActive, err = strconv.Atoi(v)
			case "bytes":
				lim.MaxBytes, err = strconv.ParseInt(v, 10, 64)
			default:
				return defaults, nil, fmt.Errorf("admission: unknown quota key %q in clause %q", k, clause)
			}
			if err != nil {
				return defaults, nil, fmt.Errorf("admission: quota entry %q: %w", kv, err)
			}
		}
		if tenant == "*" {
			defaults = lim
		} else {
			perTenant[tenant] = lim
		}
	}
	return defaults, perTenant, nil
}
