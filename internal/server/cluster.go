// Cluster integration: the serving-layer half of internal/cluster.
//
// The cluster layer owns placement (consistent-hash ring), failure
// detection (phi-accrual gossip), forwarding (hedged retries) and
// replica streaming; this file supplies everything those mechanisms
// need from a concrete node — the forward's encoding of a job of any
// kind, running a forwarded job on the local engine, storing verified
// replica payloads in the registry, adopting a dead peer's jobs — plus
// the HTTP endpoints peers deliver into and the mapping of submit
// refusals to HTTP statuses both sides share.

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

// AttachCluster wires a cluster node into the server: async submits of
// every kind start routing by dataset ownership, Handler mounts the
// /internal/* peer endpoints, and terminal jobs replicate their records
// to the dataset's other owners (the engine's terminal hook). Call it
// after cluster.NewNode (whose Local side is ClusterLocal) and before
// Handler.
func (s *Server) AttachCluster(n *cluster.Node) {
	s.cluster = n
	s.engine.SetOnTerminal(s.replicate)
}

// Cluster returns the attached cluster node, or nil when single-node.
func (s *Server) Cluster() *cluster.Node { return s.cluster }

// ClusterLocal returns the cluster.Local implementation over this
// server, for cluster.Options.Local.
func (s *Server) ClusterLocal() cluster.Local { return clusterLocal{s} }

// clusterLocal implements cluster.Local over a Server.
type clusterLocal struct{ s *Server }

// Forwarded job kinds. A forward names the kind of the spec it carries;
// an analysis names none, so a forward from a build that named no kind
// still decodes as the analysis it is.
const (
	kindExplore      = "explore"
	kindSignificance = "significance"
)

// forwardOf encodes work as a forward under a fresh job ID, the
// forwarder-minted ID every hedged or retried copy carries.
func forwardOf(work jobs.Work) (cluster.JobRequest, error) {
	id, err := jobs.NewID()
	if err != nil {
		return cluster.JobRequest{}, err
	}
	spec, err := json.Marshal(work)
	if err != nil {
		return cluster.JobRequest{}, err
	}
	ds, _ := work.Source()
	req := cluster.JobRequest{ID: id, SpecJSON: spec, Dataset: string(ds)}
	switch work.(type) {
	case jobs.ExploreSpec:
		req.Kind = kindExplore
	case jobs.SignificanceSpec:
		req.Kind = kindSignificance
	}
	return req, nil
}

// forwardedWork decodes the spec a forward carries as the work of its
// kind, tenant included: a spec of an unknown kind, one that does not
// parse, or one whose dataset is not the one the forward was placed by
// is refused. A pure function, so FuzzForwardedJob drives it directly.
func forwardedWork(kind string, spec []byte, dataset string) (jobs.Work, error) {
	var work jobs.Work
	var err error
	switch kind {
	case "":
		work, err = decodeSpec[jobs.Spec](spec)
	case kindExplore:
		work, err = decodeSpec[jobs.ExploreSpec](spec)
	case kindSignificance:
		work, err = decodeSpec[jobs.SignificanceSpec](spec)
	default:
		return nil, fmt.Errorf("unknown job kind %q", kind)
	}
	if err != nil {
		return nil, fmt.Errorf("bad %s spec: %v", orDefault(kind, "analysis"), err)
	}
	if ds, _ := work.Source(); string(ds) != dataset {
		return nil, fmt.Errorf("spec reads dataset %q, the forward was placed by %q", ds, dataset)
	}
	return work, nil
}

// decodeSpec decodes one spec of type W.
func decodeSpec[W jobs.Work](b []byte) (jobs.Work, error) {
	var w W
	err := json.Unmarshal(b, &w)
	return w, err
}

// RunJob is the terminal hop of a forward (or a local submission routed
// through the cluster layer): decode the work of the forward's kind,
// register the carried CSV if any, and submit under the forwarder-minted
// ID, which the engine admits. Idempotent in req.ID — hedged duplicates
// are acknowledged with the existing job.
func (cl clusterLocal) RunJob(ctx context.Context, req cluster.JobRequest) (cluster.JobAck, error) {
	s := cl.s
	if req.ID == "" {
		return cluster.JobAck{}, fmt.Errorf("%w: forwarded job without an id", cluster.ErrPeerRejected)
	}
	if job, ok := s.engine.Get(req.ID); ok {
		return s.ackOf(job), nil
	}
	work, err := forwardedWork(req.Kind, req.SpecJSON, req.Dataset)
	if err != nil {
		return cluster.JobAck{}, fmt.Errorf("%w: forwarded job: %v", cluster.ErrPeerRejected, err)
	}
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
	}
	job, err := s.engine.SubmitAdopted(req.ID, work)
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
// Engine.Adopt under the job's own kind. Adoption bypasses admission:
// the origin already admitted the tenant, and failover must not
// re-reject accepted work.
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

// replicate pushes a record the engine logged for j — the submitted
// record on accept, the terminal record at the end — to the other owners
// of j's dataset, in the background: replication is an availability
// optimization and must not sit on the submit path.
//
// lint:ignore ctxflow replication outlives the request that triggered it; the fan-out is bounded by its own timeout, not the caller's
func (s *Server) replicate(j *jobs.Job, rec jobs.Record) {
	n := s.cluster
	payload, err := json.Marshal(rec)
	if err != nil {
		return
	}
	ds, _ := j.Work().Source()
	env := cluster.JobRecord{ID: rec.Job, Dataset: string(ds), Payload: payload}
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

// writeSubmitError maps a job submission's refusal, local or forwarded,
// to HTTP: admission denials and full queues are 429 with Retry-After
// (the explicit backpressure contract), a spec the engine refuses is
// 400, and a draining engine is 503. The cluster errors depend on who
// asked. A client (peer false) gets 429 for a definitive peer rejection,
// so it backs off, and 502 for an unreachable replica set. A forwarding
// peer (peer true) gets 400 for a rejection and 500 for anything else,
// which its transport reads as "stop" and "try the next replica".
func writeSubmitError(w http.ResponseWriter, err error, peer bool) {
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
	case peer && errors.Is(err, cluster.ErrPeerRejected):
		writeError(w, http.StatusBadRequest, err.Error())
	case peer:
		writeError(w, http.StatusInternalServerError, err.Error())
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
		writeSubmitError(w, err, true)
		return
	}
	writeJSON(w, http.StatusOK, ack)
}

// handleReplicate implements POST /internal/replicate: one chunk of a
// streaming replica payload. Resume acks (offset mismatch) are 200 with
// the receiver's high-water mark; verification failures are definitive
// 4xx rejections. A payload may total no more than the largest upload
// this server accepts, so a sender cannot grow its assembly buffer past
// that.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	var chunk cluster.ReplicaChunk
	if !s.decodeInternal(w, r, &chunk) {
		return
	}
	if chunk.Total > s.maxBody {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("%v: replica payload of %d bytes exceeds the %d-byte limit",
			cluster.ErrPeerRejected, chunk.Total, s.maxBody))
		return
	}
	ack, err := s.cluster.HandleReplicate(chunk)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ack)
}
