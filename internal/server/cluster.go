// Cluster integration: the serving-layer half of internal/cluster.
//
// The cluster layer owns placement (consistent-hash ring), failure
// detection (phi-accrual gossip), forwarding (hedged retries) and
// replica streaming; this file supplies everything those mechanisms
// need from a concrete node — running a forwarded job on the local
// engine, storing verified replica payloads in the registry, adopting a
// dead peer's jobs — plus the HTTP endpoints peers deliver into and the
// admission bookkeeping shared by the single-node and clustered submit
// paths.

package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/jobs"
	"repro/internal/registry"
)

// TenantHeader names the request header carrying the submitting tenant
// for admission control. Absent or empty means the default tenant.
const TenantHeader = "X-Tenant"

// replicateTimeout bounds one background replication fan-out (spill or
// job record). Replication is an availability optimization; a slow or
// dead peer must not pin goroutines forever.
const replicateTimeout = 30 * time.Second

func tenantOf(r *http.Request) string {
	return strings.TrimSpace(r.Header.Get(TenantHeader))
}

// AttachCluster wires a cluster node into the server: handleJobSubmit
// starts routing by dataset ownership, Handler mounts the /internal/*
// peer endpoints, and terminal jobs replicate their records to the
// dataset's other owners. Call it after cluster.NewNode (whose Local
// side is ClusterLocal) and before Handler.
func (s *Server) AttachCluster(n *cluster.Node) { s.cluster = n }

// Cluster returns the attached cluster node, or nil when single-node.
func (s *Server) Cluster() *cluster.Node { return s.cluster }

// ClusterLocal returns the cluster.Local implementation over this
// server, for cluster.Options.Local.
func (s *Server) ClusterLocal() cluster.Local { return clusterLocal{s} }

// clusterLocal implements cluster.Local over a Server.
type clusterLocal struct{ s *Server }

// RunJob is the terminal hop of a forward (or a local submission routed
// through the cluster layer): register the carried CSV if any, admit
// the tenant, and enqueue under the forwarder-minted ID. Idempotent in
// req.ID — hedged duplicates are acknowledged with the existing job.
func (cl clusterLocal) RunJob(ctx context.Context, req cluster.JobRequest) (cluster.JobAck, error) {
	s := cl.s
	if req.ID == "" {
		return cluster.JobAck{}, fmt.Errorf("%w: forwarded job without an id", cluster.ErrPeerRejected)
	}
	if job, ok := s.engine.Get(req.ID); ok {
		return s.ackOf(job), nil
	}
	var spec jobs.Spec
	if err := json.Unmarshal(req.SpecJSON, &spec); err != nil {
		return cluster.JobAck{}, fmt.Errorf("%w: bad forwarded spec: %v", cluster.ErrPeerRejected, err)
	}
	if spec.Dataset == "" {
		spec.Dataset = registry.Hash(req.Dataset)
	}
	spec.Tenant = req.Tenant
	var bytes int64
	if len(req.CSV) > 0 {
		entry, existed, err := s.reg.Register(req.CSV, csvOptions())
		if err != nil {
			return cluster.JobAck{}, fmt.Errorf("%w: registering forwarded csv: %v", cluster.ErrPeerRejected, err)
		}
		if string(entry.Hash) != req.Dataset {
			return cluster.JobAck{}, fmt.Errorf("%w: forwarded csv hashes to %s, not %s",
				cluster.ErrPeerRejected, entry.Hash, req.Dataset)
		}
		if !existed {
			// Push the bytes to the hash's other owners now, so a
			// replica that later adopts this job can actually re-mine it.
			s.replicateSpill(entry.Hash, dataset.Canonicalize(req.CSV))
		}
		bytes = entry.Bytes
	} else if entry, ok := s.reg.Get(spec.Dataset); ok {
		bytes = entry.Bytes
	}
	job, err := s.submitLocal(req.ID, spec.Tenant, spec, bytes)
	if err != nil {
		if isRejection(err) {
			// Definitive refusal: the forwarder must not hedge one
			// tenant's quota denial into a cluster-wide retry storm.
			return cluster.JobAck{}, fmt.Errorf("%w: %w", cluster.ErrPeerRejected, err)
		}
		return cluster.JobAck{}, err
	}
	// Hand the submitted record to the dataset's other owners so one of
	// them can adopt the job if this node dies mid-mine.
	s.replicate(job, job.SubmittedRecord())
	return s.ackOf(job), nil
}

// StoreReplica accepts a verified replica payload from a peer. Spill
// payloads (canonicalized CSV bytes, checksummed by the cluster layer)
// are registered so the dataset is resident for failover re-mines; job
// records live in the cluster layer's handoff table and need nothing
// engine-side until the origin dies.
func (cl clusterLocal) StoreReplica(origin cluster.NodeID, kind, key string, data []byte) error {
	s := cl.s
	if kind != cluster.ReplicaSpill {
		return nil
	}
	entry, _, err := s.reg.Register(data, csvOptions())
	if err != nil {
		return fmt.Errorf("server: storing spill replica %s from %s: %w", key, origin, err)
	}
	if string(entry.Hash) != key {
		// The chunk checksum already matched, so the sender keyed the
		// payload by something other than its content hash.
		s.reg.Remove(entry.Hash)
		return fmt.Errorf("server: spill replica keyed %s but hashes to %s", key, entry.Hash)
	}
	return nil
}

// AdoptJob re-homes one job record from a dead peer: the jobs.Record
// its engine logged, inside the cluster envelope, folded by
// Engine.Adopt. Adoption bypasses admission: the origin already
// admitted the tenant, and failover must not re-reject accepted work.
func (cl clusterLocal) AdoptJob(origin cluster.NodeID, record []byte) error {
	var env cluster.JobRecord
	if err := json.Unmarshal(record, &env); err != nil {
		return fmt.Errorf("server: bad adopted record from %s: %w", origin, err)
	}
	var rec jobs.Record
	if err := json.Unmarshal(env.Payload, &rec); err != nil {
		return fmt.Errorf("server: bad adopted payload for job %s: %w", env.ID, err)
	}
	return cl.s.engine.Adopt(rec)
}

// ackOf snapshots a job as the cluster acknowledgement shape.
func (s *Server) ackOf(j *jobs.Job) cluster.JobAck {
	ack := cluster.JobAck{ID: j.ID(), State: j.Snapshot().State.String()}
	if n := s.cluster; n != nil {
		ack.Node = n.Self()
	}
	return ack
}

// submitLocal is the one admitted submission path of every job kind,
// local or forwarded: admit the tenant, then enqueue under a pre-minted
// ID so hedged duplicates merge. The grant is released on enqueue
// failure and otherwise at terminal time (jobTerminal).
func (s *Server) submitLocal(id, tenant string, work jobs.Work, bytes int64) (*jobs.Job, error) {
	if err := s.admitJob(id, tenant, bytes); err != nil {
		return nil, err
	}
	job, err := s.engine.SubmitAdopted(id, work)
	if err != nil {
		s.releaseJob(id)
		return nil, err
	}
	return job, nil
}

// admittedJob records one admission grant for release at terminal time.
type admittedJob struct {
	tenant string
	bytes  int64
}

// admitJob charges (tenant, bytes) against the admission controller and
// records the grant under the job ID. Duplicate IDs (hedged forwards)
// are admitted once. No controller means everything is admitted.
func (s *Server) admitJob(id, tenant string, bytes int64) error {
	if s.admission == nil {
		return nil
	}
	s.admMu.Lock()
	if _, dup := s.admitted[id]; dup {
		s.admMu.Unlock()
		return nil
	}
	s.admMu.Unlock()
	if err := s.admission.Admit(tenant, bytes); err != nil {
		return err
	}
	s.admMu.Lock()
	if _, dup := s.admitted[id]; dup {
		// A concurrent duplicate won the race; fold this grant back.
		s.admMu.Unlock()
		s.admission.Release(tenant, bytes)
		return nil
	}
	s.admitted[id] = admittedJob{tenant: tenant, bytes: bytes}
	s.admMu.Unlock()
	return nil
}

// releaseJob returns the job's admission grant, if one was recorded.
func (s *Server) releaseJob(id string) {
	if s.admission == nil {
		return
	}
	s.admMu.Lock()
	grant, ok := s.admitted[id]
	delete(s.admitted, id)
	s.admMu.Unlock()
	if ok {
		s.admission.Release(grant.tenant, grant.bytes)
	}
}

// jobTerminal is the engine's OnTerminal hook: release the admission
// grant and replicate the terminal record to the dataset's other
// owners, so an adopter knows the job needs no re-run (a done record
// additionally carries the summary and the re-mine recipe).
func (s *Server) jobTerminal(j *jobs.Job, rec jobs.Record) {
	s.releaseJob(j.ID())
	s.replicate(j, rec)
}

// replicate pushes a record the engine logged for j — the submitted
// record on accept, the terminal record at the end — to the other owners
// of j's dataset, in the background: replication is an availability
// optimization and must not sit on the submit path.
//
// lint:ignore ctxflow replication outlives the request that triggered it; the fan-out is bounded by its own timeout, not the caller's
func (s *Server) replicate(j *jobs.Job, rec jobs.Record) {
	n := s.cluster
	if n == nil {
		return
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return
	}
	env := cluster.JobRecord{ID: rec.Job, Dataset: string(j.Spec().Dataset), Done: rec.Type != jobs.RecSubmitted, Payload: payload}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), replicateTimeout)
		defer cancel()
		n.ReplicateJobRecord(ctx, env)
	}()
}

// replicateSpill pushes a dataset's canonical bytes to the other owners
// of its hash, in the background.
// lint:ignore ctxflow replication outlives the upload request; bounded by its own timeout
func (s *Server) replicateSpill(hash registry.Hash, canonical []byte) {
	n := s.cluster
	if n == nil {
		return
	}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), replicateTimeout)
		defer cancel()
		n.ReplicateSpill(ctx, string(hash), canonical)
	}()
}

// isRejection reports whether a submit failure is a definitive refusal
// (quota, rate, queue capacity) as opposed to a transient fault.
func isRejection(err error) bool {
	var denied *admission.Denied
	return errors.As(err, &denied) || errors.Is(err, jobs.ErrQueueFull)
}

// retryAfterSeconds renders a Retry-After header value, at least 1s.
func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// writeSubmitError maps job-submission failures — local or forwarded —
// to HTTP statuses: admission denials and full queues are 429 with
// Retry-After (the explicit backpressure contract), a spec the engine
// refuses is 400, a draining engine is 503, a definitive peer rejection
// surfaces as 429 so clients back off, and an unreachable replica set
// is 502.
func writeSubmitError(w http.ResponseWriter, err error) {
	var denied *admission.Denied
	switch {
	case errors.Is(err, jobs.ErrBadInput):
		writeError(w, http.StatusBadRequest, err.Error())
	case errors.As(err, &denied):
		w.Header().Set("Retry-After", retryAfterSeconds(denied.RetryAfter))
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, jobs.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, jobs.ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, cluster.ErrPeerRejected):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, cluster.ErrPeerUnreachable):
		writeError(w, http.StatusBadGateway, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// decodeInternal reads and decodes one peer-to-peer request body.
func (s *Server) decodeInternal(w http.ResponseWriter, r *http.Request, v any) bool {
	body, ok := s.readBody(w, r)
	if !ok {
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeError(w, http.StatusBadRequest, "decoding cluster request: "+err.Error())
		return false
	}
	return true
}

// handleGossip implements POST /internal/gossip: fold a peer's
// heartbeat (and its piggybacked liveness view) into the detector.
func (s *Server) handleGossip(w http.ResponseWriter, r *http.Request) {
	var hb cluster.Heartbeat
	if !s.decodeInternal(w, r, &hb) {
		return
	}
	s.cluster.HandleHeartbeat(hb)
	writeJSON(w, http.StatusOK, struct{}{})
}

// handleForwardedJob implements POST /internal/jobs — the receiving end
// of a peer's hedged forward. Definitive refusals answer 4xx (the
// transport maps them to ErrPeerRejected, stopping the hedge), and
// transient faults answer 5xx (mapped to ErrPeerUnreachable, letting
// the forwarder try the next replica).
func (s *Server) handleForwardedJob(w http.ResponseWriter, r *http.Request) {
	var req cluster.JobRequest
	if !s.decodeInternal(w, r, &req) {
		return
	}
	ack, err := s.cluster.HandleForwardJob(r.Context(), req)
	if err != nil {
		var denied *admission.Denied
		switch {
		case errors.As(err, &denied):
			w.Header().Set("Retry-After", retryAfterSeconds(denied.RetryAfter))
			writeError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, jobs.ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, jobs.ErrShuttingDown):
			writeError(w, http.StatusServiceUnavailable, err.Error())
		case errors.Is(err, cluster.ErrPeerRejected):
			writeError(w, http.StatusBadRequest, err.Error())
		default:
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, ack)
}

// handleReplicate implements POST /internal/replicate: one chunk of a
// streaming replica payload. Resume acks (offset mismatch) are 200 with
// the receiver's high-water mark; verification failures are definitive
// 4xx rejections.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	var chunk cluster.ReplicaChunk
	if !s.decodeInternal(w, r, &chunk) {
		return
	}
	ack, err := s.cluster.HandleReplicate(chunk)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ack)
}

// NewFairJobQueue builds a jobs.Queue that drains tenants by weighted
// fair queueing (internal/admission) instead of global FIFO, so one
// tenant's burst cannot starve the others. Weights come from ctrl's
// per-tenant limits; a nil ctrl gives every tenant weight 1. Install it
// via jobs.Config.Queue.
func NewFairJobQueue(capacity int, ctrl *admission.Controller) jobs.Queue {
	var weightOf func(string) float64
	if ctrl != nil {
		weightOf = ctrl.Weight
	}
	return fairJobQueue{q: admission.NewFairQueue[*jobs.Job](capacity, weightOf)}
}

// fairJobQueue adapts admission.FairQueue to the engine's Queue seam.
type fairJobQueue struct {
	q *admission.FairQueue[*jobs.Job]
}

func (f fairJobQueue) Push(j *jobs.Job) bool  { return f.q.Push(j.Spec().Tenant, j) }
func (f fairJobQueue) Pop() (*jobs.Job, bool) { return f.q.Pop() }
func (f fairJobQueue) Len() int               { return f.q.Len() }
func (f fairJobQueue) Cap() int               { return f.q.Cap() }
func (f fairJobQueue) Close()                 { f.q.Close() }
