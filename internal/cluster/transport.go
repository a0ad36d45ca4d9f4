package cluster

import (
	"context"
	"errors"
	"time"
)

// Transport errors every implementation maps onto, so the retry policy
// in node.go is implementation-agnostic.
var (
	// ErrPeerUnreachable marks a send that never reached the peer
	// (connection refused, killed node, partition). Retryable.
	ErrPeerUnreachable = errors.New("cluster: peer unreachable")
	// ErrPeerRejected marks a send the peer received and refused
	// (admission, capacity). Not retryable on the same peer.
	ErrPeerRejected = errors.New("cluster: peer rejected request")
)

// Heartbeat is one gossip message: the sender's liveness claim plus its
// view of every peer's latest sequence number, so liveness information
// travels over any reachable path, not just direct links.
type Heartbeat struct {
	From NodeID `json:"from"`
	// Seq increments on every heartbeat the sender emits; a receiver
	// treats a higher Seq as proof of life at receive time.
	Seq uint64 `json:"seq"`
	// View maps peer IDs to the highest Seq the sender has observed for
	// them (directly or via gossip). Indirect evidence keeps a node
	// alive through an asymmetric partition.
	View map[NodeID]uint64 `json:"view,omitempty"`
}

// JobRequest is a forwarded job submission. The forwarder mints the job
// ID, so retries and hedged attempts are idempotent: every replica that
// ends up with the request installs the same job under the same ID.
type JobRequest struct {
	// ID is the cluster-wide job identifier, minted by the forwarder.
	ID string `json:"id"`
	// Kind names the job's kind, which the serving layer defines; empty
	// for an analysis.
	Kind string `json:"kind,omitempty"`
	// SpecJSON is the job's spec of that kind, tenant included,
	// serialized by the serving layer. The cluster layer never looks
	// inside — placement uses Dataset below.
	SpecJSON []byte `json:"spec"`
	// Dataset is the content hash the job reads; placement key.
	Dataset string `json:"dataset"`
	// CSV carries the raw upload when the job was submitted with an
	// inline body; the owner registers it before mining. Empty when the
	// dataset is expected to be resident (or replicated) on the owner.
	CSV []byte `json:"csv,omitempty"`
}

// JobAck acknowledges a forwarded job.
type JobAck struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Node  NodeID `json:"node"`
}

// Replica payload kinds.
const (
	// ReplicaSpill is a checksummed dataset payload (canonicalized CSV
	// bytes); Key is the content hash, which doubles as the checksum.
	ReplicaSpill = "spill"
	// ReplicaJob is a WAL-style job record (JSON); Key is the job ID.
	// Job records are tiny and always fit one chunk.
	ReplicaJob = "job"
)

// ReplicaChunk is one resumable slice of a replicated payload. The
// sender streams consecutive chunks; the receiver assembles them keyed
// by (Origin, Kind, Key) and verifies the content hash of the complete
// payload before accepting it. A chunk whose Offset disagrees with what
// the receiver already holds is answered with the receiver's high-water
// mark so the sender can resume mid-payload instead of starting over.
type ReplicaChunk struct {
	Origin NodeID `json:"origin"`
	Kind   string `json:"kind"`
	// Key identifies the payload: the dataset content hash for spill
	// payloads (verify-on-receive re-hashes against it), the job ID for
	// job records.
	Key    string `json:"key"`
	Offset int64  `json:"offset"`
	Total  int64  `json:"total"`
	Data   []byte `json:"data"`
}

// ReplicaAck reports the receiver's durable high-water mark for the
// payload. Have == Total means the payload was verified and accepted.
type ReplicaAck struct {
	Have int64 `json:"have"`
	// Resume is set when the chunk was rejected for an offset mismatch;
	// the sender should re-send from Have.
	Resume bool `json:"resume,omitempty"`
}

// Transport carries the three cluster verbs to a peer. Implementations
// must be safe for concurrent use and must honor ctx cancellation and
// deadlines — the per-attempt timeout in node.go depends on it.
type Transport interface {
	// Heartbeat delivers a gossip heartbeat. Fire-and-forget semantics:
	// an error only means this path is down right now.
	Heartbeat(ctx context.Context, to NodeID, hb Heartbeat) error
	// ForwardJob submits a job on the peer.
	ForwardJob(ctx context.Context, to NodeID, req JobRequest) (JobAck, error)
	// Replicate delivers one payload chunk.
	Replicate(ctx context.Context, to NodeID, chunk ReplicaChunk) (ReplicaAck, error)
}

// Handler is the receiving half a node exposes to its transport: the
// in-memory transport calls it directly, the HTTP transport's server
// side (internal/server) decodes requests and calls it.
type Handler interface {
	HandleHeartbeat(hb Heartbeat)
	HandleForwardJob(ctx context.Context, req JobRequest) (JobAck, error)
	HandleReplicate(chunk ReplicaChunk) (ReplicaAck, error)
}

// Local is what the cluster layer needs from the node it runs inside —
// implemented by internal/server in production and by test fakes in
// this package's harnesses. The cluster layer owns placement, health,
// retry and assembly; Local owns everything that touches the job engine
// or the registry.
type Local interface {
	// RunJob executes or enqueues req on this node (the terminal hop of
	// a forward). The implementation must be idempotent in req.ID.
	RunJob(ctx context.Context, req JobRequest) (JobAck, error)
	// StoreReplica accepts a complete, hash-verified replica payload.
	StoreReplica(origin NodeID, kind, key string, data []byte) error
	// AdoptJob re-homes a dead peer's job record on this node: install
	// the record and re-mine through the rehydrate path as needed.
	AdoptJob(origin NodeID, record []byte) error
}

// Clock abstracts time for deterministic tests: Now for timestamps and
// After for backoff/hedge sleeps.
type Clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
}

// realClock is the production clock.
type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
