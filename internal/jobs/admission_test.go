package jobs

import (
	"context"
	"errors"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faultfs"
)

// gatedRun blocks every analysis until gate closes (or its context
// ends), then fails with err when it is non-nil or mines for real.
func gatedRun(gate <-chan struct{}, err error) AnalyzeFunc {
	return func(ctx context.Context, data *dataset.Dataset, spec Spec, tr *Tracker) (*core.Result, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if err != nil {
			return nil, err
		}
		return RunAnalysis(ctx, data, spec, tr)
	}
}

// tenantRow returns tenant's admission row, zero when it has none.
func tenantRow(ctrl *admission.Controller, tenant string) admission.TenantStats {
	for _, row := range ctrl.Stats() {
		if row.Tenant == tenant {
			return row
		}
	}
	return admission.TenantStats{}
}

func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for j.Snapshot().State != want {
		if time.Now().After(deadline) {
			t.Fatalf("job %s is %s, want %s", j.ID(), j.Snapshot().State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionGrantReleasedOnEveryPath: a job charges its tenant one
// active slot at submit and returns it when it ends, whichever way it
// ends; a submit the engine refuses after admission returns it before
// answering.
func TestAdmissionGrantReleasedOnEveryPath(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name string
		cfg  func(t *testing.T, gate chan struct{}) Config
		// run submits spec (tenant "t") and ends the job, checking the
		// tenant's active count where the job holds its grant. It returns
		// the job, nil when the engine refused it.
		run func(t *testing.T, e *Engine, spec Spec, gate chan struct{}, active func(int)) *Job
		// want is the job's terminal state.
		want State
	}{
		{"done", func(_ *testing.T, g chan struct{}) Config { return Config{Analyze: gatedRun(g, nil)} },
			func(t *testing.T, e *Engine, spec Spec, gate chan struct{}, active func(int)) *Job {
				job := mustSubmit(t, e, spec)
				active(1)
				close(gate)
				return job
			}, StateDone},
		{"failed", func(_ *testing.T, g chan struct{}) Config { return Config{Analyze: gatedRun(g, boom)} },
			func(t *testing.T, e *Engine, spec Spec, gate chan struct{}, active func(int)) *Job {
				job := mustSubmit(t, e, spec)
				active(1)
				close(gate)
				return job
			}, StateFailed},
		{"job timeout", func(_ *testing.T, g chan struct{}) Config {
			return Config{Analyze: gatedRun(g, nil), DefaultTimeout: 20 * time.Millisecond}
		}, func(t *testing.T, e *Engine, spec Spec, gate chan struct{}, active func(int)) *Job {
			job := mustSubmit(t, e, spec)
			active(1)
			return job
		}, StateFailed},
		{"canceled while running", func(_ *testing.T, g chan struct{}) Config { return Config{Analyze: gatedRun(g, nil)} },
			func(t *testing.T, e *Engine, spec Spec, gate chan struct{}, active func(int)) *Job {
				job := mustSubmit(t, e, spec)
				waitState(t, job, StateRunning)
				active(1)
				if _, err := e.Cancel(job.ID()); err != nil {
					t.Fatal(err)
				}
				return job
			}, StateCanceled},
		{"canceled while queued", func(_ *testing.T, g chan struct{}) Config { return Config{Analyze: gatedRun(g, nil)} },
			func(t *testing.T, e *Engine, spec Spec, gate chan struct{}, active func(int)) *Job {
				blocker := spec
				blocker.Tenant, blocker.Support = "other", 0.1
				waitState(t, mustSubmit(t, e, blocker), StateRunning)
				job := mustSubmit(t, e, spec)
				active(1)
				if _, err := e.Cancel(job.ID()); err != nil {
					t.Fatal(err)
				}
				close(gate)
				return job
			}, StateCanceled},
		{"queue full", func(_ *testing.T, g chan struct{}) Config { return Config{Analyze: gatedRun(g, nil), QueueDepth: 1} },
			func(t *testing.T, e *Engine, spec Spec, gate chan struct{}, active func(int)) *Job {
				other := spec
				other.Tenant, other.Support = "other", 0.1
				waitState(t, mustSubmit(t, e, other), StateRunning)
				other.Support = 0.2
				mustSubmit(t, e, other)
				if _, err := e.Submit(spec); !errors.Is(err, ErrQueueFull) {
					t.Fatalf("submit to a full queue: %v", err)
				}
				active(0)
				close(gate)
				return nil
			}, 0},
		{"WAL append refused", func(t *testing.T, _ chan struct{}) Config {
			inj := faultfs.NewInjector(faultfs.OS(), chaosSeed(t))
			inj.Inject(faultfs.Fault{Op: faultfs.OpWrite, Path: WALName, Times: -1, Err: syscall.ENOSPC})
			return Config{Store: openChaosStore(t, t.TempDir(), inj)}
		}, func(t *testing.T, e *Engine, spec Spec, gate chan struct{}, active func(int)) *Job {
			if _, err := e.Submit(spec); !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("submit with an unwritable WAL: %v", err)
			}
			active(0)
			return nil
		}, 0},
		{"shutdown", func(_ *testing.T, g chan struct{}) Config { return Config{Analyze: gatedRun(g, nil)} },
			func(t *testing.T, e *Engine, spec Spec, gate chan struct{}, active func(int)) *Job {
				job := mustSubmit(t, e, spec)
				waitState(t, job, StateRunning)
				active(1)
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				defer cancel()
				if err := e.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("shutdown of a blocked job: %v", err)
				}
				active(0)
				return job
			}, StateCanceled},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctrl := admission.NewController(admission.Limits{}, nil, nil)
			gate := make(chan struct{})
			cfg := c.cfg(t, gate)
			cfg.Workers, cfg.Admission = 1, ctrl
			e, h := testEngine(t, cfg)
			spec := sampleSpec(h)
			spec.Tenant = "t"
			active := func(want int) {
				t.Helper()
				if got := tenantRow(ctrl, "t").ActiveJobs; got != want {
					t.Fatalf("tenant t holds %d active slots, want %d", got, want)
				}
			}
			if job := c.run(t, e, spec, gate, active); job != nil {
				if st := waitTerminal(t, job); st.State != c.want {
					t.Errorf("job ended %s, want %s", st.State, c.want)
				}
			}
			waitUntilActive(t, ctrl, "t", 0)
			if row := tenantRow(ctrl, "t"); row.Admitted != 1 {
				t.Fatalf("tenant t = %+v, want admitted once", row)
			}
		})
	}
}

func mustSubmit(t *testing.T, e *Engine, w Work) *Job {
	t.Helper()
	job, err := e.Submit(w)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// TestAdmissionDuplicateIDChargesNothing: SubmitAdopted of an ID the
// engine holds — queued, running or ended — returns that job and
// charges nothing, so a retried forward is never admitted twice.
func TestAdmissionDuplicateIDChargesNothing(t *testing.T) {
	ctrl := admission.NewController(admission.Limits{}, nil, nil)
	gate := make(chan struct{})
	e, h := testEngine(t, Config{Workers: 1, Admission: ctrl, Analyze: gatedRun(gate, nil)})
	spec := sampleSpec(h)
	spec.Tenant = "t"
	submit := func(id string, support float64) *Job {
		t.Helper()
		s := spec
		s.Support = support
		job, err := e.SubmitAdopted(id, s)
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	running := submit("running", 0.05)
	waitState(t, running, StateRunning)
	queued := submit("queued", 0.1)
	check := func(active int) {
		t.Helper()
		if row := tenantRow(ctrl, "t"); row.Admitted != 2 || row.ActiveJobs != active {
			t.Fatalf("tenant t = %+v, want 2 admitted and %d active", row, active)
		}
	}
	for _, j := range []*Job{running, queued} {
		if again := submit(j.ID(), 0.2); again != j {
			t.Fatalf("duplicate %s made a second job", j.ID())
		}
	}
	check(2)
	close(gate)
	waitTerminal(t, running)
	waitTerminal(t, queued)
	waitUntilActive(t, ctrl, "t", 0)
	if again := submit(running.ID(), 0.2); again != running {
		t.Fatal("duplicate of an ended job made a second job")
	}
	check(0)
}

func waitUntilActive(t *testing.T, ctrl *admission.Controller, tenant string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for tenantRow(ctrl, tenant).ActiveJobs != want {
		if time.Now().After(deadline) {
			t.Fatalf("tenant %s holds %d active slots, want %d", tenant, tenantRow(ctrl, tenant).ActiveJobs, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionAdoptBypassesQuota: a submitted record adopted from a
// dead peer re-runs even when its tenant is at quota — the origin
// admitted it — and its end returns nothing it never held.
func TestAdmissionAdoptBypassesQuota(t *testing.T) {
	ctrl := admission.NewController(admission.Limits{}, map[string]admission.Limits{"t": {MaxActive: 1}}, nil)
	gate := make(chan struct{})
	e, h := testEngine(t, Config{Workers: 2, Admission: ctrl, Analyze: gatedRun(gate, nil)})
	spec := sampleSpec(h)
	spec.Tenant = "t"
	held := mustSubmit(t, e, spec)
	spec.Support = 0.1
	var denied *admission.Denied
	if _, err := e.Submit(spec); !errors.As(err, &denied) {
		t.Fatalf("submit over quota: %v, want a denial", err)
	}
	if err := e.Adopt(Record{Type: RecSubmitted, Job: "adopted", Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	adopted, ok := e.Get("adopted")
	if !ok {
		t.Fatal("adopted record did not re-run")
	}
	close(gate)
	for _, j := range []*Job{held, adopted} {
		if st := waitTerminal(t, j); st.State != StateDone {
			t.Fatalf("job %s = %s (%s), want done", j.ID(), st.State, st.Err)
		}
	}
	waitUntilActive(t, ctrl, "t", 0)
	if row := tenantRow(ctrl, "t"); row.Admitted != 1 || row.DeniedJobs != 1 {
		t.Fatalf("tenant t = %+v, want 1 admitted and 1 denied", row)
	}
}

// TestAdmissionFairQueue: an engine with a controller queues through
// the weighted fair queue, sized by QueueDepth, so a tenant's backlog
// does not hold back another tenant's later job as FIFO would.
func TestAdmissionFairQueue(t *testing.T) {
	gate := make(chan struct{})
	var mu sync.Mutex
	var order []string
	analyze := func(ctx context.Context, data *dataset.Dataset, spec Spec, tr *Tracker) (*core.Result, error) {
		<-gate
		mu.Lock()
		order = append(order, spec.Tenant)
		mu.Unlock()
		return RunAnalysis(ctx, data, spec, tr)
	}
	ctrl := admission.NewController(admission.Limits{}, nil, nil)
	e, h := testEngine(t, Config{Workers: 1, QueueDepth: 5, Admission: ctrl, Analyze: analyze})
	submit := func(tenant string, support float64) *Job {
		t.Helper()
		spec := sampleSpec(h)
		spec.Tenant, spec.Support = tenant, support
		return mustSubmit(t, e, spec)
	}
	jobs := []*Job{submit("a", 0.05)}
	waitState(t, jobs[0], StateRunning)
	for i, tenant := range []string{"a", "a", "a", "b"} {
		jobs = append(jobs, submit(tenant, 0.1+0.05*float64(i)))
	}
	if st := e.Stats(); st.QueueCap != 5 || st.QueueLen != 4 {
		t.Fatalf("queue stats = %d/%d, want 4 queued of 5", st.QueueLen, st.QueueCap)
	}
	close(gate)
	for _, j := range jobs {
		waitTerminal(t, j)
	}
	mu.Lock()
	defer mu.Unlock()
	if got := order; len(got) != 5 || got[2] != "b" {
		t.Fatalf("run order = %v, want b third (FIFO would run it last)", got)
	}
}
