package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// fakeLocal is a recording Local implementation, idempotent in job ID
// as the Local contract requires.
type fakeLocal struct {
	mu       sync.Mutex
	jobs     []JobRequest
	jobIDs   map[string]bool
	replicas map[string][]byte // kind|key -> data
	adopted  []JobRecord
	runErr   error
}

func newFakeLocal() *fakeLocal {
	return &fakeLocal{jobIDs: make(map[string]bool), replicas: make(map[string][]byte)}
}

func (f *fakeLocal) RunJob(_ context.Context, req JobRequest) (JobAck, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.runErr != nil {
		return JobAck{}, f.runErr
	}
	if !f.jobIDs[req.ID] {
		f.jobIDs[req.ID] = true
		f.jobs = append(f.jobs, req)
	}
	return JobAck{ID: req.ID, State: "queued"}, nil
}

func (f *fakeLocal) StoreReplica(_ NodeID, kind, key string, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.replicas[kind+"|"+key] = append([]byte(nil), data...)
	return nil
}

func (f *fakeLocal) AdoptJob(_ NodeID, record []byte) error {
	var rec JobRecord
	if err := json.Unmarshal(record, &rec); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.adopted = append(f.adopted, rec)
	return nil
}

func (f *fakeLocal) jobCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.jobs)
}

func (f *fakeLocal) adoptedCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.adopted)
}

// testCluster wires n nodes over one MemNetwork with fast, test-sized
// timeouts. Gossip loops stay off; tests drive Tick themselves.
func testCluster(t *testing.T, seed int64, ids ...NodeID) (*MemNetwork, map[NodeID]*Node, map[NodeID]*fakeLocal) {
	t.Helper()
	net := NewMemNetwork(seed)
	nodes := make(map[NodeID]*Node, len(ids))
	locals := make(map[NodeID]*fakeLocal, len(ids))
	for _, id := range ids {
		peers := make([]NodeID, 0, len(ids)-1)
		for _, p := range ids {
			if p != id {
				peers = append(peers, p)
			}
		}
		local := newFakeLocal()
		node, err := NewNode(Options{
			Self:              id,
			Peers:             peers,
			ReplicationFactor: 2,
			AttemptTimeout:    200 * time.Millisecond,
			MaxAttempts:       2,
			BackoffBase:       time.Millisecond,
			BackoffCap:        4 * time.Millisecond,
			HedgeAfter:        20 * time.Millisecond,
			ChunkSize:         16,
			Transport:         net.Transport(id),
			Local:             local,
			Seed:              seed + 1,
		})
		if err != nil {
			t.Fatalf("NewNode(%s): %v", id, err)
		}
		net.Attach(id, node)
		nodes[id] = node
		locals[id] = local
	}
	return net, nodes, locals
}

// ownerOf returns a key whose primary owner is want, probing numbered
// keys — placement is deterministic, so the probe is too.
func ownerOf(t *testing.T, n *Node, want NodeID) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("synthetic-hash-%d", i)
		if n.Owners(k)[0] == want {
			return k
		}
	}
	t.Fatalf("no key with primary %s in 10000 probes", want)
	return ""
}

// foreignKey returns a key whose replica set excludes n entirely.
func foreignKey(t *testing.T, n *Node) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("synthetic-hash-%d", i)
		if !n.IsOwner(k) {
			return k
		}
	}
	t.Fatalf("no key excluding %s in 10000 probes", n.Self())
	return ""
}

func TestSubmitJobRunsLocallyWhenOwner(t *testing.T) {
	_, nodes, locals := testCluster(t, 1, "a", "b", "c")
	n := nodes["a"]
	key := ownerOf(t, n, "a")
	ack, err := n.SubmitJob(context.Background(), JobRequest{ID: "j1", Dataset: key})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if ack.ID != "j1" || locals["a"].jobCount() != 1 {
		t.Fatalf("job did not run locally: ack=%+v local=%d", ack, locals["a"].jobCount())
	}
	if n.Stats().ForwardsOut != 0 {
		t.Fatalf("local submit counted as forward")
	}
}

func TestSubmitJobForwardsToOwner(t *testing.T) {
	_, nodes, locals := testCluster(t, 2, "a", "b", "c")
	n := nodes["a"]
	key := foreignKey(t, n)
	owners := n.Owners(key)
	ack, err := n.SubmitJob(context.Background(), JobRequest{ID: "j2", Dataset: key})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if ack.ID != "j2" {
		t.Fatalf("ack = %+v", ack)
	}
	ran := 0
	for _, id := range owners {
		ran += locals[id].jobCount()
	}
	if ran != 1 {
		t.Fatalf("job ran on %d owners, want exactly 1", ran)
	}
	if locals["a"].jobCount() != 0 {
		t.Fatalf("forwarder ran the job itself")
	}
	if nodes["a"].Stats().ForwardsOut != 1 {
		t.Fatalf("forward not counted: %+v", nodes["a"].Stats())
	}
}

func TestForwardFailsOverToReplicaWhenPrimaryKilled(t *testing.T) {
	net, nodes, locals := testCluster(t, 3, "a", "b", "c")
	n := nodes["a"]
	key := foreignKey(t, n)
	owners := n.Owners(key)
	net.Kill(owners[0])
	ack, err := n.SubmitJob(context.Background(), JobRequest{ID: "j3", Dataset: key})
	if err != nil {
		t.Fatalf("SubmitJob with dead primary: %v", err)
	}
	if ack.ID != "j3" {
		t.Fatalf("ack = %+v", ack)
	}
	if locals[owners[1]].jobCount() != 1 {
		t.Fatalf("replica %s did not run the failed-over job", owners[1])
	}
	st := n.Stats()
	if st.ForwardRetries == 0 && st.Hedges == 0 {
		t.Fatalf("failover happened without retries or hedges: %+v", st)
	}
}

func TestForwardHedgesToReplicaOnSlowPrimary(t *testing.T) {
	net, nodes, locals := testCluster(t, 11, "a", "b", "c")
	n := nodes["a"]
	key := foreignKey(t, n)
	owners := n.Owners(key)
	// Primary answers, but far slower than HedgeAfter (20ms): the hedge
	// to the replica must win the race.
	net.SlowWalk(owners[0], 150*time.Millisecond)
	ack, err := n.SubmitJob(context.Background(), JobRequest{ID: "j-slow", Dataset: key})
	if err != nil {
		t.Fatalf("SubmitJob with slow primary: %v", err)
	}
	if ack.ID != "j-slow" {
		t.Fatalf("ack = %+v", ack)
	}
	if n.Stats().Hedges == 0 {
		t.Fatalf("slow primary did not trigger a hedge: %+v", n.Stats())
	}
	if locals[owners[1]].jobCount() != 1 {
		t.Fatalf("hedged replica did not run the job")
	}
}

func TestForwardRejectionIsDefinitive(t *testing.T) {
	_, nodes, locals := testCluster(t, 4, "a", "b", "c")
	n := nodes["a"]
	key := foreignKey(t, n)
	owners := n.Owners(key)
	locals[owners[0]].runErr = fmt.Errorf("%w: tenant over quota", ErrPeerRejected)
	_, err := n.SubmitJob(context.Background(), JobRequest{ID: "j4", Dataset: key})
	if !errors.Is(err, ErrPeerRejected) {
		t.Fatalf("err = %v, want ErrPeerRejected", err)
	}
	// The rejection must not be retried onto the replica: a tenant's 429
	// must not become a cluster-wide retry storm.
	if locals[owners[1]].jobCount() != 0 {
		t.Fatalf("rejected job was hedged onto the replica")
	}
	if st := n.Stats(); st.ForwardRetries != 0 {
		t.Fatalf("rejection was retried: %+v", st)
	}
}

func TestReplicateSpillChunkedAndVerified(t *testing.T) {
	_, nodes, locals := testCluster(t, 5, "a", "b", "c")
	n := nodes["a"]
	data := []byte("col1,col2\n1,2\n3,4\n5,6\n7,8\n9,10\n") // several 16-byte chunks
	key := sha256Hex(data)
	n.ReplicateSpill(context.Background(), key, data)
	stored := 0
	for id, l := range locals {
		if id == "a" {
			continue
		}
		l.mu.Lock()
		if got, ok := l.replicas[ReplicaSpill+"|"+key]; ok {
			stored++
			if string(got) != string(data) {
				t.Fatalf("replica on %s corrupted: %q", id, got)
			}
		}
		l.mu.Unlock()
	}
	if want := len(n.replicaPeers(key)); stored != want {
		t.Fatalf("spill stored on %d peers, want %d", stored, want)
	}
	if n.Stats().ReplicateFailures != 0 {
		t.Fatalf("replicate failures on a healthy network: %+v", n.Stats())
	}
}

func TestReplicateRejectsChecksumMismatch(t *testing.T) {
	_, nodes, locals := testCluster(t, 6, "a", "b")
	n := nodes["b"]
	_, err := n.HandleReplicate(ReplicaChunk{
		Origin: "a", Kind: ReplicaSpill, Key: "00deadbeef", Offset: 0,
		Total: 4, Data: []byte("data"),
	})
	if !errors.Is(err, ErrPeerRejected) {
		t.Fatalf("corrupt replica accepted: err=%v", err)
	}
	if len(locals["b"].replicas) != 0 {
		t.Fatalf("corrupt replica stored")
	}
	if n.Stats().ReplicaRejects == 0 {
		t.Fatalf("reject not counted")
	}
}

func TestReplicateResumesFromHighWaterMark(t *testing.T) {
	_, nodes, _ := testCluster(t, 7, "a", "b")
	n := nodes["b"]
	data := []byte("0123456789abcdef0123456789abcdef") // two 16-byte chunks
	key := sha256Hex(data)
	// First half lands.
	ack, err := n.HandleReplicate(ReplicaChunk{Origin: "a", Kind: ReplicaSpill, Key: key, Offset: 0, Total: 32, Data: data[:16]})
	if err != nil || ack.Have != 16 {
		t.Fatalf("first chunk: ack=%+v err=%v", ack, err)
	}
	// A retransmit of the first half is answered with the mark, not an
	// error — the sender resumes instead of starting over.
	ack, err = n.HandleReplicate(ReplicaChunk{Origin: "a", Kind: ReplicaSpill, Key: key, Offset: 0, Total: 32, Data: data[:16]})
	if err != nil || !ack.Resume || ack.Have != 16 {
		t.Fatalf("duplicate chunk: ack=%+v err=%v, want resume at 16", ack, err)
	}
	// Resuming from the mark completes and verifies.
	ack, err = n.HandleReplicate(ReplicaChunk{Origin: "a", Kind: ReplicaSpill, Key: key, Offset: 16, Total: 32, Data: data[16:]})
	if err != nil || ack.Have != 32 {
		t.Fatalf("final chunk: ack=%+v err=%v", ack, err)
	}
	if n.Stats().ReplicaPayloadsIn != 1 {
		t.Fatalf("payload not counted complete: %+v", n.Stats())
	}
}

func TestDeadPeerJobsAdoptedByElectedReplicaOnly(t *testing.T) {
	ids := []NodeID{"a", "b", "c"}
	net, nodes, locals := testCluster(t, 8, ids...)

	// b owns key (primary); replicate a job record from b to its peers.
	key := ownerOf(t, nodes["b"], "b")
	rec := JobRecord{ID: "job-77", Dataset: key, Payload: json.RawMessage(`{"spec":1}`)}
	nodes["b"].ReplicateJobRecord(context.Background(), rec)

	// Everyone heartbeats for a while, then b goes dark.
	for i := 0; i < 10; i++ {
		for _, id := range ids {
			nodes[id].Tick()
		}
		time.Sleep(time.Millisecond)
	}
	net.Kill("b")
	deadline := time.Now().Add(10 * time.Second)
	for nodes["a"].Alive("b") || nodes["c"].Alive("b") {
		if time.Now().After(deadline) {
			t.Fatalf("b never declared dead")
		}
		nodes["a"].Tick()
		nodes["c"].Tick()
		time.Sleep(2 * time.Millisecond)
	}

	adopted := locals["a"].adoptedCount() + locals["c"].adoptedCount()
	if adopted != 1 {
		t.Fatalf("job adopted by %d nodes, want exactly 1", adopted)
	}
	// The adopter must be the highest-priority surviving owner of the
	// dataset.
	var wantAdopter NodeID
	for _, id := range nodes["a"].Owners(key) {
		if id != "b" {
			wantAdopter = id
			break
		}
	}
	if locals[wantAdopter].adoptedCount() != 1 {
		t.Fatalf("elected adopter %s did not adopt the job", wantAdopter)
	}
}

func TestGossipSpreadsLivenessThroughPartition(t *testing.T) {
	// a<->b and b<->c can talk; a<->c cannot. a must still consider c
	// alive via b's piggybacked view. Deliver the heartbeats by hand so
	// the evidence chain is explicit: c's heartbeat reaches b, then b's
	// view (carrying c's sequence) reaches a.
	_, nodes, _ := testCluster(t, 9, "a", "b", "c")
	nodes["b"].HandleHeartbeat(Heartbeat{From: "c", Seq: 7})
	nodes["a"].HandleHeartbeat(Heartbeat{From: "b", Seq: 3, View: nodes["b"].health.seqs()})
	if !nodes["a"].Alive("c") {
		t.Fatalf("indirect liveness evidence ignored")
	}
	a := nodes["a"]
	a.health.mu.Lock()
	seq := a.health.peers["c"].seq
	a.health.mu.Unlock()
	if seq != 7 {
		t.Fatalf("gossiped seq = %d, want 7", seq)
	}
}

func TestGossipEchoDoesNotResurrectDeadPeer(t *testing.T) {
	_, nodes, _ := testCluster(t, 10, "a", "b", "c")
	a := nodes["a"]
	a.HandleHeartbeat(Heartbeat{From: "b", Seq: 9})
	a.health.mu.Lock()
	a.health.peers["b"].state = PeerDead
	a.health.mu.Unlock()
	// The same sequence bouncing back through c's view is old news.
	a.HandleHeartbeat(Heartbeat{From: "c", Seq: 1, View: map[NodeID]uint64{"b": 9}})
	if a.Alive("b") {
		t.Fatalf("stale gossiped sequence resurrected a dead peer")
	}
	// Fresh evidence does resurrect.
	a.HandleHeartbeat(Heartbeat{From: "c", Seq: 2, View: map[NodeID]uint64{"b": 10}})
	if !a.Alive("b") {
		t.Fatalf("fresh gossiped sequence did not resurrect the peer")
	}
	if a.Stats().Resurrections != 1 {
		t.Fatalf("resurrection not counted: %+v", a.Stats())
	}
}

func BenchmarkForwardJob(b *testing.B) {
	net := NewMemNetwork(42)
	nodes := make(map[NodeID]*Node)
	for _, id := range []NodeID{"a", "b"} {
		peer := NodeID("a")
		if id == "a" {
			peer = "b"
		}
		n, err := NewNode(Options{
			Self: id, Peers: []NodeID{peer}, ReplicationFactor: 1,
			AttemptTimeout: time.Second, Transport: net.Transport(id),
			Local: newFakeLocal(), Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		net.Attach(id, n)
		nodes[id] = n
	}
	n := nodes["a"]
	var key string
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("synthetic-hash-%d", i)
		if n.Owners(k)[0] == "b" {
			key = k
			break
		}
	}
	if key == "" {
		b.Fatal("no key owned by b")
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := JobRequest{ID: fmt.Sprintf("j%d", i), Dataset: key}
		if _, err := n.SubmitJob(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}
