package server

import (
	"errors"
	"net/http"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/jobs"
	"repro/internal/monitor"
	"repro/internal/registry"
)

// csvOptions is the single parsing configuration for every upload path,
// so the content hash always addresses identically-parsed data.
func csvOptions() dataset.CSVOptions { return dataset.CSVOptions{TrimSpace: true} }

// CSVOptions exposes the server's upload parsing configuration. A disk
// spill tier must re-parse promoted datasets with exactly these options
// (registry.AttachSpill), or a dataset would round-trip through disk
// parsed differently than it was uploaded.
func CSVOptions() dataset.CSVOptions { return csvOptions() }

// Wire shapes for the dataset and job endpoints.

type datasetJSON struct {
	Hash       string `json:"hash"`
	Rows       int    `json:"rows"`
	Attributes int    `json:"attributes"`
	Bytes      int64  `json:"bytes"`
	// Cached is true when the upload was already registered and no
	// re-parse happened.
	Cached bool `json:"cached"`
}

type progressJSON struct {
	Done  int64 `json:"done"`
	Total int64 `json:"total"`
}

type jobJSON struct {
	ID         string        `json:"id"`
	State      string        `json:"state"`
	Dataset    string        `json:"dataset"`
	Error      string        `json:"error,omitempty"`
	CacheHit   bool          `json:"cache_hit"`
	Recovered  bool          `json:"recovered,omitempty"`
	CreatedAt  string        `json:"created_at"`
	StartedAt  string        `json:"started_at,omitempty"`
	FinishedAt string        `json:"finished_at,omitempty"`
	Progress   *progressJSON `json:"progress,omitempty"`
	ResultURL  string        `json:"result_url,omitempty"`
	PartialURL string        `json:"partial_url,omitempty"`
	EventsURL  string        `json:"events_url,omitempty"`
}

func jobToJSON(st jobs.Status) jobJSON {
	j := jobJSON{
		ID:        st.ID,
		State:     st.State.String(),
		Dataset:   string(st.Dataset),
		Error:     st.Err,
		CacheHit:  st.CacheHit,
		Recovered: st.Recovered,
		CreatedAt: st.Created.UTC().Format(time.RFC3339Nano),
	}
	if !st.Started.IsZero() {
		j.StartedAt = st.Started.UTC().Format(time.RFC3339Nano)
	}
	if !st.Finished.IsZero() {
		j.FinishedAt = st.Finished.UTC().Format(time.RFC3339Nano)
	}
	if st.ProgressTotal > 0 {
		j.Progress = &progressJSON{Done: st.ProgressDone, Total: st.ProgressTotal}
	}
	if st.State == jobs.StateDone {
		j.ResultURL = "/jobs/" + st.ID + "/result"
	}
	if !st.State.Terminal() {
		j.EventsURL = "/jobs/" + st.ID + "/events"
	}
	if st.State == jobs.StateRunning || st.State == jobs.StateDone {
		j.PartialURL = "/jobs/" + st.ID + "/partial"
	}
	return j
}

// handleDatasetRegister implements POST /datasets: content-address the
// uploaded CSV and parse it once.
func (s *Server) handleDatasetRegister(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	entry, existed, err := s.reg.Register(body, csvOptions())
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !existed {
		// Replicate the dataset to the other owners of its hash, so a
		// forwarded or failed-over job finds it resident there.
		s.replicateSpill(entry.Hash, dataset.Canonicalize(body))
	}
	writeJSON(w, http.StatusOK, datasetJSON{
		Hash:       string(entry.Hash),
		Rows:       entry.Data.NumRows(),
		Attributes: entry.Data.NumAttrs(),
		Bytes:      entry.Bytes,
		Cached:     existed,
	})
}

// handleDatasetGet implements GET /datasets/{hash}.
func (s *Server) handleDatasetGet(w http.ResponseWriter, r *http.Request) {
	h := registry.Hash(r.PathValue("hash"))
	entry, ok := s.reg.Get(h)
	if !ok {
		writeError(w, http.StatusNotFound, "dataset "+string(h)+" not registered")
		return
	}
	writeJSON(w, http.StatusOK, datasetJSON{
		Hash:       string(entry.Hash),
		Rows:       entry.Data.NumRows(),
		Attributes: entry.Data.NumAttrs(),
		Bytes:      entry.Bytes,
		Cached:     true,
	})
}

// handleDatasetDelete implements DELETE /datasets/{hash}: drop a
// dataset from every tier — the in-memory registry, its disk-spill
// file, and any quarantined copy. Deletion is total: a later result
// rehydration for the hash degrades to the durable summary instead of
// resurrecting the dataset from disk. Jobs already holding the parsed
// entry keep working (entries are immutable); new submissions for the
// hash get 404.
func (s *Server) handleDatasetDelete(w http.ResponseWriter, r *http.Request) {
	h := registry.Hash(r.PathValue("hash"))
	if !s.reg.Remove(h) {
		writeError(w, http.StatusNotFound, "dataset "+string(h)+" not registered")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": string(h)})
}

// handleJobSubmit implements POST /jobs: submit by registered dataset
// hash (?dataset=...) or by inline CSV body.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	spec, _, err := parseRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var upload []byte
	if h := r.URL.Query().Get("dataset"); h != "" {
		spec.Dataset = registry.Hash(h)
	} else {
		body, ok := s.readBody(w, r)
		if !ok {
			return
		}
		entry, _, err := s.reg.Register(body, csvOptions())
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		spec.Dataset, upload = entry.Hash, body
	}
	spec.Tenant = tenantOf(r)
	s.submitAsync(w, r, spec, upload)
}

// submitAsync is the one async submit of every job kind: POST /jobs,
// and /explore and /significance with "async": true. The engine
// validates, admits and queues the work; the answer is 202 with the
// job's status, or the refusal mapped by writeSubmitError. Single-node,
// work on a dataset not registered here is a 404, unless the request
// uploaded it. With a cluster node attached the ring routes the work to
// its dataset's owners, which may hold a dataset this node has never
// seen: it runs here when this node is one, and is otherwise forwarded
// with hedged retries, the upload's canonical bytes travelling with it
// so the owner can register them. A spec the engine refuses is a 400
// here, before any forward: an owner's refusal reaches a client through
// the transport as a peer rejection.
func (s *Server) submitAsync(w http.ResponseWriter, r *http.Request, work jobs.Work, upload []byte) {
	n := s.cluster
	if n == nil {
		if ds, _ := work.Source(); upload == nil {
			if _, ok := s.reg.Get(ds); !ok {
				writeError(w, http.StatusNotFound, "dataset "+string(ds)+" not registered")
				return
			}
		}
		job, err := s.engine.Submit(work)
		if err != nil {
			writeSubmitError(w, err, false)
			return
		}
		writeJSON(w, http.StatusAccepted, jobToJSON(job.Snapshot()))
		return
	}
	if err := s.engine.Validate(work); err != nil {
		writeSubmitError(w, err, false)
		return
	}
	req, err := forwardOf(work)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if upload != nil {
		req.CSV = dataset.Canonicalize(upload)
	}
	ack, err := n.SubmitJob(r.Context(), req)
	if err != nil {
		writeSubmitError(w, err, false)
		return
	}
	if job, ok := s.engine.Get(ack.ID); ok && ack.Node == n.Self() {
		writeJSON(w, http.StatusAccepted, jobToJSON(job.Snapshot()))
		return
	}
	// The job landed on a peer; the ack names the owning node.
	writeJSON(w, http.StatusAccepted, ack)
}

// handleJobStatus implements GET /jobs/{id}.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.engine.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, jobToJSON(job.Snapshot()))
}

// handleJobResult implements GET /jobs/{id}/result. An analysis job's
// mined result is rendered with the formatters the synchronous path
// uses, in the format the query parameter names (json by default); an
// explore or significance job's outcome is served as JSON.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.engine.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	st := job.Snapshot()
	if st.State != jobs.StateDone {
		msg := "job is " + st.State.String()
		if st.Err != "" {
			msg += ": " + st.Err
		}
		writeError(w, http.StatusConflict, msg)
		return
	}
	out, err := job.Result()
	fromMemory := err == nil
	var res *core.Result
	switch out := out.(type) {
	case *core.Result:
		res = out
	case nil:
		if !errors.Is(err, jobs.ErrNoResult) {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		// The job was recovered from the store, so the full in-memory
		// result did not survive the restart. Fallback chain: re-mine the
		// full result from the re-pinned dataset, then the durable summary
		// marked degraded, then 410 Gone.
		res, err = s.engine.Rehydrate(r.Context(), job)
		if err != nil {
			if sum := job.Summary(); sum != nil {
				s.degraded.Add(1)
				writeJSON(w, http.StatusOK, degradedResultJSON{
					Degraded:      true,
					Reason:        err.Error(),
					ResultSummary: sum,
				})
				return
			}
			s.gone.Add(1)
			writeError(w, http.StatusGone, err.Error())
			return
		}
	default:
		// An explore or significance job's outcome is its result, served as
		// it was first served after a restart or an adoption too; neither
		// has the full analysis payload the ladder serves.
		writeJSON(w, http.StatusOK, out)
		return
	}
	format, err := parseFormat(r.URL.Query().Get("format"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if fromMemory {
		// The full result never left memory — the ladder's top rung.
		// Counted at render time so a bad format override is not a serve.
		s.memoryHits.Add(1)
	}
	spec, _ := job.Work().(jobs.Spec) // a mined result is an analysis's
	s.render(w, res, spec, format)
}

// degradedResultJSON is the summary-only fallback served from the result
// endpoint when a recovered job's full result cannot be re-mined (v1 log
// format, or the dataset is no longer resident). The summary fields are
// inlined; the explicit degraded marker tells clients they are looking
// at the durable digest, not the full per-itemset payload.
type degradedResultJSON struct {
	Degraded bool   `json:"degraded"`
	Reason   string `json:"degraded_reason,omitempty"`
	*jobs.ResultSummary
}

// handleJobCancel implements DELETE /jobs/{id}.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.engine.Cancel(r.PathValue("id"))
	if errors.Is(err, jobs.ErrUnknownJob) {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, jobToJSON(st))
}

// statszJSON is the /statsz payload: job-engine and dataset-registry
// statistics side by side, plus the degradation-ladder counters.
type statszJSON struct {
	Jobs     jobs.Stats     `json:"jobs"`
	Datasets registry.Stats `json:"datasets"`
	Ladder   ladderJSON     `json:"result_ladder"`
	Monitors monitor.Stats  `json:"monitors"`
	// Cluster is present when a cluster node is attached; its peer list
	// is sorted by node ID. Admission is present when a controller is
	// attached; rows are sorted by tenant. Both orderings are part of the
	// statsz determinism contract — the whole payload is struct-shaped
	// with sorted slices, so byte-for-byte diffs between snapshots are
	// meaningful.
	Cluster   *cluster.Stats          `json:"cluster,omitempty"`
	Admission []admission.TenantStats `json:"admission,omitempty"`
}

// ladderJSON counts how often each rung of the graceful-degradation
// ladder actually served: memory hits are results served straight from
// the in-memory job result (a dedicated server counter — the registry's
// hit counter moves on every dataset lookup and is not comparable to
// the rungs below), disk loads come from the registry's spill tier,
// rehydrations re-mined a full result after a restart, degraded served
// the durable summary only, and gone is the bottom — HTTP 410, nothing
// survived.
type ladderJSON struct {
	MemoryHits  int64 `json:"memory_hits"`
	DiskLoads   int64 `json:"disk_loads"`
	Rehydrated  int64 `json:"rehydrated_results"`
	Degraded    int64 `json:"degraded_results"`
	Gone        int64 `json:"gone_results"`
	Quarantined int64 `json:"quarantined_spills"`
}

// handleStatsz implements GET /statsz.
func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	js, ds := s.engine.Stats(), s.reg.Stats()
	ladder := ladderJSON{
		MemoryHits: s.memoryHits.Load(),
		Rehydrated: js.Rehydrated,
		Degraded:   s.degraded.Load(),
		Gone:       s.gone.Load(),
	}
	if ds.Spill != nil {
		ladder.DiskLoads = ds.Spill.Loads
		ladder.Quarantined = ds.Spill.Quarantined
	}
	out := statszJSON{Jobs: js, Datasets: ds, Ladder: ladder, Monitors: s.monitors.Stats()}
	if s.cluster != nil {
		cs := s.cluster.Stats()
		out.Cluster = &cs
	}
	if ctrl := s.engine.Admission(); ctrl != nil {
		out.Admission = ctrl.Stats()
	}
	writeJSON(w, http.StatusOK, out)
}
