package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults for Options fields left zero.
const (
	DefaultReplication    = 2
	DefaultHeartbeatEvery = 500 * time.Millisecond
	DefaultAttemptTimeout = 2 * time.Second
	DefaultMaxAttempts    = 3
	DefaultBackoffBase    = 25 * time.Millisecond
	DefaultBackoffCap     = 1 * time.Second
	DefaultHedgeAfter     = 250 * time.Millisecond
	DefaultChunkSize      = 256 << 10
)

// Options configures a Node. Self, Transport and Local are required.
type Options struct {
	// Self is this node's ID; Peers are the other members. Membership is
	// static for the life of the process (operators restart with a new
	// -peers list to resize); liveness within the member set is dynamic.
	Self  NodeID
	Peers []NodeID
	// ReplicationFactor is how many owners each content hash has
	// (DefaultReplication when <= 0; clamped to the cluster size).
	ReplicationFactor int
	// HeartbeatEvery is the gossip cadence; <= 0 disables the background
	// loop (tests call Tick themselves).
	HeartbeatEvery time.Duration
	// PhiThreshold is the suspicion level at which a peer is declared
	// dead (DefaultPhiThreshold when <= 0).
	PhiThreshold float64
	// AttemptTimeout bounds one forward or replicate attempt.
	AttemptTimeout time.Duration
	// MaxAttempts bounds attempts per peer before moving on.
	MaxAttempts int
	// BackoffBase/BackoffCap shape the capped exponential backoff
	// between attempts; every wait is jittered to ±50%.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// HedgeAfter is how long a forward waits on one owner before
	// launching the attempt to the next replica in parallel.
	HedgeAfter time.Duration
	// ChunkSize bounds replication chunk payloads.
	ChunkSize int

	Transport Transport
	Local     Local
	// Clock defaults to the real clock; chaos tests inject a fake.
	Clock Clock
	// Seed fixes the jitter RNG for deterministic tests; 0 seeds from
	// the clock.
	Seed int64
	// Logf, when set, receives diagnostic lines (deaths, adoptions).
	Logf func(format string, args ...any)
}

// Stats is the cluster section of /statsz. Peers is sorted by node ID.
type Stats struct {
	Self        NodeID       `json:"self"`
	Members     int          `json:"members"`
	Replication int          `json:"replication"`
	Peers       []PeerHealth `json:"peers"`

	HeartbeatsSent int64 `json:"heartbeats_sent"`
	HeartbeatsRecv int64 `json:"heartbeats_received"`
	Deaths         int64 `json:"deaths"`
	Resurrections  int64 `json:"resurrections"`

	ForwardsOut     int64 `json:"forwards_out"`
	ForwardsIn      int64 `json:"forwards_in"`
	ForwardRetries  int64 `json:"forward_retries"`
	Hedges          int64 `json:"hedges"`
	ForwardFailures int64 `json:"forward_failures"`

	ReplicaChunksOut  int64 `json:"replica_chunks_out"`
	ReplicaChunksIn   int64 `json:"replica_chunks_in"`
	ReplicaPayloadsIn int64 `json:"replica_payloads_in"`
	ReplicaResumes    int64 `json:"replica_resumes"`
	ReplicaRejects    int64 `json:"replica_rejects"`
	ReplicateFailures int64 `json:"replicate_failures"`
	HandoffRecords    int64 `json:"handoff_records"`
	Adoptions         int64 `json:"adoptions"`
	AdoptFailures     int64 `json:"adopt_failures"`
}

// Node is one cluster member: placement ring + health tracker + the
// forwarding/replication client, plus the Handler side its transport
// delivers into. All methods are safe for concurrent use.
type Node struct {
	opts   Options
	ring   *Ring
	health *health
	clock  Clock

	seq atomic.Uint64 // own heartbeat sequence

	rngMu sync.Mutex
	rng   *rand.Rand

	// assembly holds in-flight replica payloads keyed origin|kind|key.
	asmMu    sync.Mutex
	assembly map[string]*replicaBuf

	// handoff holds complete job records replicated from peers, keyed
	// origin → job ID, ready for adoption if the origin dies.
	hoMu    sync.Mutex
	handoff map[NodeID]map[string]JobRecord

	loopStop chan struct{}
	loopDone chan struct{}
	stopOnce sync.Once

	heartbeatsSent atomic.Int64
	heartbeatsRecv atomic.Int64
	deaths         atomic.Int64
	resurrections  atomic.Int64

	forwardsOut     atomic.Int64
	forwardsIn      atomic.Int64
	forwardRetries  atomic.Int64
	hedges          atomic.Int64
	forwardFailures atomic.Int64

	chunksOut      atomic.Int64
	chunksIn       atomic.Int64
	payloadsIn     atomic.Int64
	resumes        atomic.Int64
	rejects        atomic.Int64
	replFailures   atomic.Int64
	handoffRecords atomic.Int64
	adoptions      atomic.Int64
	adoptFailures  atomic.Int64
}

// NewNode builds a node over opts and starts nothing: call Start for
// the background gossip loop, or drive Tick manually.
func NewNode(opts Options) (*Node, error) {
	if opts.Self == "" {
		return nil, fmt.Errorf("cluster: Options.Self is required")
	}
	if opts.Transport == nil {
		return nil, fmt.Errorf("cluster: Options.Transport is required")
	}
	if opts.Local == nil {
		return nil, fmt.Errorf("cluster: Options.Local is required")
	}
	if opts.ReplicationFactor <= 0 {
		opts.ReplicationFactor = DefaultReplication
	}
	if opts.AttemptTimeout <= 0 {
		opts.AttemptTimeout = DefaultAttemptTimeout
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = DefaultMaxAttempts
	}
	if opts.BackoffBase < 0 {
		opts.BackoffBase = 0
	} else if opts.BackoffBase == 0 {
		opts.BackoffBase = DefaultBackoffBase
	}
	if opts.BackoffCap <= 0 {
		opts.BackoffCap = DefaultBackoffCap
	}
	if opts.HedgeAfter <= 0 {
		opts.HedgeAfter = DefaultHedgeAfter
	}
	if opts.ChunkSize <= 0 {
		opts.ChunkSize = DefaultChunkSize
	}
	if opts.Clock == nil {
		opts.Clock = realClock{}
	}
	if opts.ReplicationFactor > 1+len(opts.Peers) {
		opts.ReplicationFactor = 1 + len(opts.Peers)
	}
	seed := opts.Seed
	if seed == 0 {
		seed = opts.Clock.Now().UnixNano()
	}

	ring := NewRing(DefaultVirtualNodes)
	ring.Add(opts.Self)
	for _, p := range opts.Peers {
		ring.Add(p)
	}
	bootstrap := opts.HeartbeatEvery
	if bootstrap <= 0 {
		bootstrap = DefaultHeartbeatEvery
	}
	n := &Node{
		opts:     opts,
		ring:     ring,
		clock:    opts.Clock,
		rng:      rand.New(rand.NewSource(seed)),
		assembly: make(map[string]*replicaBuf),
		handoff:  make(map[NodeID]map[string]JobRecord),
	}
	n.health = newHealth(opts.PhiThreshold, bootstrap, opts.Clock)
	n.health.onDeath = n.peerDied
	n.health.onAlive = func(NodeID) { n.resurrections.Add(1) }
	for _, p := range opts.Peers {
		n.health.watch(p)
	}
	return n, nil
}

// Self returns this node's ID.
func (n *Node) Self() NodeID { return n.opts.Self }

// Replication returns the effective replication factor.
func (n *Node) Replication() int { return n.opts.ReplicationFactor }

// Owners returns the replica set for key, in priority order.
func (n *Node) Owners(key string) []NodeID {
	return n.ring.Owners(key, n.opts.ReplicationFactor)
}

// IsOwner reports whether this node is in key's replica set.
func (n *Node) IsOwner(key string) bool {
	for _, id := range n.Owners(key) {
		if id == n.opts.Self {
			return true
		}
	}
	return false
}

// Alive reports the health tracker's verdict on a peer (self is always
// alive).
func (n *Node) Alive(id NodeID) bool {
	return id == n.opts.Self || n.health.alive(id)
}

// Start launches the background gossip loop (when HeartbeatEvery > 0).
func (n *Node) Start() {
	if n.opts.HeartbeatEvery <= 0 || n.loopStop != nil {
		return
	}
	n.loopStop = make(chan struct{})
	n.loopDone = make(chan struct{})
	go n.loop()
}

// Close stops the gossip loop. Idempotent.
func (n *Node) Close() {
	n.stopOnce.Do(func() {
		if n.loopStop != nil {
			close(n.loopStop)
			<-n.loopDone
		}
	})
}

func (n *Node) loop() {
	defer close(n.loopDone)
	t := time.NewTicker(n.opts.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-n.loopStop:
			return
		case <-t.C:
			n.Tick()
		}
	}
}

// Tick runs one gossip round: emit a heartbeat (with the piggybacked
// view) to every peer, then sweep the failure detector. The background
// loop calls it on a ticker; deterministic tests call it directly.
// lint:ignore ctxflow gossip rounds are initiated by the node's own ticker, not a caller request; each send is bounded by the per-attempt timeout
func (n *Node) Tick() {
	hb := Heartbeat{From: n.opts.Self, Seq: n.seq.Add(1), View: n.health.seqs()}
	var wg sync.WaitGroup
	for _, p := range n.opts.Peers {
		wg.Add(1)
		go func(to NodeID) {
			defer wg.Done()
			ctx, cancel := n.attemptCtx()
			defer cancel()
			if err := n.opts.Transport.Heartbeat(ctx, to, hb); err == nil {
				n.heartbeatsSent.Add(1)
			}
		}(p)
	}
	wg.Wait()
	n.health.sweep()
}

// attemptCtx bounds one transport attempt.
// lint:ignore ctxflow gossip and replication attempts are initiated by the node's own loops, not a caller request; the per-attempt timeout is the cancellation contract
func (n *Node) attemptCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), n.opts.AttemptTimeout)
}

// jittered returns the backoff for attempt i: capped exponential with
// ±50% jitter, so synchronized retries from many forwarders spread out.
func (n *Node) jittered(attempt int) time.Duration {
	d := n.opts.BackoffBase << uint(attempt)
	if d > n.opts.BackoffCap || d <= 0 {
		d = n.opts.BackoffCap
	}
	n.rngMu.Lock()
	f := 0.5 + n.rng.Float64() // [0.5, 1.5)
	n.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

// SubmitJob routes a job to the owners of its dataset: locally when
// this node is an owner, otherwise forwarded to the highest-priority
// live owner with per-attempt timeouts, capped exponential backoff with
// jitter, and a hedged attempt to the next replica when an owner stays
// silent past HedgeAfter. A rejection from an owner (admission) is
// definitive and is returned without hedging — the cluster must not
// turn one tenant's 429 into a retry storm.
func (n *Node) SubmitJob(ctx context.Context, req JobRequest) (JobAck, error) {
	owners := n.Owners(req.Dataset)
	if len(owners) == 0 {
		return JobAck{}, fmt.Errorf("cluster: empty ring")
	}
	for _, id := range owners {
		if id == n.opts.Self {
			return n.opts.Local.RunJob(ctx, req)
		}
	}
	// Prefer live owners in priority order; fall back to the full set
	// when everything looks dead (suspicion may be wrong).
	targets := make([]NodeID, 0, len(owners))
	for _, id := range owners {
		if n.health.alive(id) {
			targets = append(targets, id)
		}
	}
	if len(targets) == 0 {
		targets = owners
	}
	n.forwardsOut.Add(1)
	ack, err := n.forward(ctx, targets, req)
	if err != nil {
		n.forwardFailures.Add(1)
	}
	return ack, err
}

// forward races the targets: the first is tried immediately, each
// subsequent replica is launched when the previous ones have all failed
// or when HedgeAfter elapses without an answer. First success wins;
// a rejection (ErrPeerRejected) is definitive and returned immediately.
func (n *Node) forward(ctx context.Context, targets []NodeID, req JobRequest) (JobAck, error) {
	type outcome struct {
		ack JobAck
		err error
	}
	results := make(chan outcome, len(targets))
	outstanding := 0
	next := 0
	launch := func(hedged bool) {
		to := targets[next]
		next++
		outstanding++
		if hedged {
			n.hedges.Add(1)
		}
		go func() {
			ack, err := n.tryPeer(ctx, to, req)
			results <- outcome{ack, err}
		}()
	}
	launch(false)
	var lastErr error
	for {
		var hedge <-chan time.Time
		if next < len(targets) {
			hedge = n.clock.After(n.opts.HedgeAfter)
		}
		select {
		case r := <-results:
			outstanding--
			if r.err == nil {
				return r.ack, nil
			}
			if errors.Is(r.err, ErrPeerRejected) {
				return JobAck{}, r.err
			}
			lastErr = r.err
			if next < len(targets) {
				launch(false)
			} else if outstanding == 0 {
				return JobAck{}, lastErr
			}
		case <-hedge:
			launch(true)
		case <-ctx.Done():
			return JobAck{}, ctx.Err()
		}
	}
}

// tryPeer runs the per-peer retry loop: MaxAttempts attempts, each
// under its own timeout, with jittered capped-exponential backoff in
// between. Rejections abort immediately.
func (n *Node) tryPeer(ctx context.Context, to NodeID, req JobRequest) (JobAck, error) {
	var lastErr error
	for attempt := 0; attempt < n.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			n.forwardRetries.Add(1)
			select {
			case <-n.clock.After(n.jittered(attempt - 1)):
			case <-ctx.Done():
				return JobAck{}, ctx.Err()
			}
		}
		actx, cancel := context.WithTimeout(ctx, n.opts.AttemptTimeout)
		ack, err := n.opts.Transport.ForwardJob(actx, to, req)
		cancel()
		if err == nil {
			return ack, nil
		}
		if errors.Is(err, ErrPeerRejected) || ctx.Err() != nil {
			return JobAck{}, err
		}
		lastErr = err
	}
	return JobAck{}, fmt.Errorf("cluster: forwarding to %s: %w", to, lastErr)
}

// HandleHeartbeat folds a received heartbeat into the health tracker:
// the sender's own sequence is direct proof of life, and every entry of
// its piggybacked view is indirect proof for the peer it names.
func (n *Node) HandleHeartbeat(hb Heartbeat) {
	n.heartbeatsRecv.Add(1)
	n.health.observe(hb.From, hb.Seq)
	for id, seq := range hb.View {
		if id != n.opts.Self {
			n.health.observe(id, seq)
		}
	}
}

// HandleForwardJob is the receiving end of SubmitJob on the owner.
func (n *Node) HandleForwardJob(ctx context.Context, req JobRequest) (JobAck, error) {
	n.forwardsIn.Add(1)
	return n.opts.Local.RunJob(ctx, req)
}

// peerDied is the health tracker's death callback: count it, log it,
// and adopt the dead peer's handed-off jobs this node is next in line
// for.
func (n *Node) peerDied(id NodeID) {
	n.deaths.Add(1)
	if n.opts.Logf != nil {
		n.opts.Logf("cluster: peer %s declared dead (phi > %.1f)", id, n.opts.PhiThreshold)
	}
	n.adoptFrom(id)
}

// Stats snapshots the cluster counters; Peers is sorted by node ID.
func (n *Node) Stats() Stats {
	return Stats{
		Self:        n.opts.Self,
		Members:     n.ring.Size(),
		Replication: n.opts.ReplicationFactor,
		Peers:       n.health.snapshot(),

		HeartbeatsSent: n.heartbeatsSent.Load(),
		HeartbeatsRecv: n.heartbeatsRecv.Load(),
		Deaths:         n.deaths.Load(),
		Resurrections:  n.resurrections.Load(),

		ForwardsOut:     n.forwardsOut.Load(),
		ForwardsIn:      n.forwardsIn.Load(),
		ForwardRetries:  n.forwardRetries.Load(),
		Hedges:          n.hedges.Load(),
		ForwardFailures: n.forwardFailures.Load(),

		ReplicaChunksOut:  n.chunksOut.Load(),
		ReplicaChunksIn:   n.chunksIn.Load(),
		ReplicaPayloadsIn: n.payloadsIn.Load(),
		ReplicaResumes:    n.resumes.Load(),
		ReplicaRejects:    n.rejects.Load(),
		ReplicateFailures: n.replFailures.Load(),
		HandoffRecords:    n.handoffRecords.Load(),
		Adoptions:         n.adoptions.Load(),
		AdoptFailures:     n.adoptFailures.Load(),
	}
}
