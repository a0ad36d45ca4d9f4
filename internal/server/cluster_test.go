// Server-level cluster integration: full servers (registry + engine +
// admission) wired over the cluster package's deterministic in-memory
// network, plus one end-to-end pass over the real HTTP transport and
// the /internal/* peer endpoints.

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/jobs"
	"repro/internal/registry"
)

// ackJSON is the 202 body for a job that landed on a remote owner.
type ackJSON struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Node  string `json:"node"`
}

// envConfig tailors a clusterEnv; the zero value gives three plain
// nodes with replication 2, two workers each, fast forward timeouts,
// and gossip off (tests Tick themselves unless heartbeat is set).
type envConfig struct {
	replication int
	workers     int
	heartbeat   time.Duration // > 0 starts each node's gossip loop
	hedgeAfter  time.Duration
	analyze     jobs.AnalyzeFunc
	admission   func(id cluster.NodeID) *admission.Controller
	clock       func(id cluster.NodeID) cluster.Clock
}

// clusterEnv is an in-process multi-node cluster of full servers.
type clusterEnv struct {
	net      *cluster.MemNetwork
	ids      []cluster.NodeID
	servers  map[cluster.NodeID]*Server
	nodes    map[cluster.NodeID]*cluster.Node
	handlers map[cluster.NodeID]http.Handler
}

func newClusterEnv(t *testing.T, seed int64, cfg envConfig, ids ...cluster.NodeID) *clusterEnv {
	t.Helper()
	if cfg.replication <= 0 {
		cfg.replication = 2
	}
	if cfg.hedgeAfter <= 0 {
		cfg.hedgeAfter = 25 * time.Millisecond
	}
	if cfg.workers <= 0 {
		cfg.workers = 2
	}
	env := &clusterEnv{
		net:      cluster.NewMemNetwork(seed),
		ids:      ids,
		servers:  make(map[cluster.NodeID]*Server, len(ids)),
		nodes:    make(map[cluster.NodeID]*cluster.Node, len(ids)),
		handlers: make(map[cluster.NodeID]http.Handler, len(ids)),
	}
	for i, id := range ids {
		peers := make([]cluster.NodeID, 0, len(ids)-1)
		for _, p := range ids {
			if p != id {
				peers = append(peers, p)
			}
		}
		var ctrl *admission.Controller
		if cfg.admission != nil {
			ctrl = cfg.admission(id)
		}
		reg := registry.New(0)
		engine, err := jobs.New(jobs.Config{Registry: reg, Workers: cfg.workers, Analyze: cfg.analyze, Admission: ctrl})
		if err != nil {
			t.Fatalf("engine(%s): %v", id, err)
		}
		s := newTestServer(t, Options{Registry: reg, Engine: engine})
		var clk cluster.Clock
		if cfg.clock != nil {
			clk = cfg.clock(id)
		}
		node, err := cluster.NewNode(cluster.Options{
			Self:              id,
			Peers:             peers,
			ReplicationFactor: cfg.replication,
			HeartbeatEvery:    cfg.heartbeat,
			AttemptTimeout:    500 * time.Millisecond,
			MaxAttempts:       2,
			BackoffBase:       time.Millisecond,
			BackoffCap:        4 * time.Millisecond,
			HedgeAfter:        cfg.hedgeAfter,
			ChunkSize:         256,
			Transport:         env.net.Transport(id),
			Local:             s.ClusterLocal(),
			Clock:             clk,
			Seed:              seed + int64(i) + 1,
		})
		if err != nil {
			t.Fatalf("NewNode(%s): %v", id, err)
		}
		env.net.Attach(id, node)
		s.AttachCluster(node)
		if cfg.heartbeat > 0 {
			node.Start()
			t.Cleanup(node.Close)
		}
		env.servers[id] = s
		env.nodes[id] = node
		env.handlers[id] = s.Handler()
	}
	return env
}

// owners returns the owner list for a dataset hash (identical on every
// node — placement is deterministic).
func (e *clusterEnv) owners(hash string) []cluster.NodeID {
	return e.nodes[e.ids[0]].Owners(hash)
}

// nonOwner returns a member that does not own hash.
func (e *clusterEnv) nonOwner(t *testing.T, hash string) cluster.NodeID {
	t.Helper()
	owners := e.owners(hash)
	for _, id := range e.ids {
		if !slices.Contains(owners, id) {
			return id
		}
	}
	t.Fatalf("every node owns %s (replication >= members)", hash)
	return ""
}

func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// doTenant is do with an X-Tenant header.
func doTenant(t *testing.T, h http.Handler, method, path, body, tenant string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// gatedAnalyze blocks every analysis until release is closed, then
// runs the real pipeline — the "mid-mine" fixture for chaos tests.
func gatedAnalyze(release <-chan struct{}) jobs.AnalyzeFunc {
	return func(ctx context.Context, data *dataset.Dataset, spec jobs.Spec, tr *jobs.Tracker) (*core.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return jobs.RunAnalysis(ctx, data, spec, tr)
	}
}

func sampleHash() string { return string(registry.HashBytes([]byte(sampleCSV))) }

// TestClusterForwardToOwner: a submit on a non-owner is forwarded to
// the dataset's primary owner, the inline CSV travels with it, and the
// accepted record reaches the second owner's handoff table.
func TestClusterForwardToOwner(t *testing.T) {
	env := newClusterEnv(t, 11, envConfig{}, "n1", "n2", "n3")
	hash := sampleHash()
	owners := env.owners(hash)
	ingress := env.nonOwner(t, hash)

	w := do(t, env.handlers[ingress], http.MethodPost, "/jobs?metric=FPR", sampleCSV)
	if w.Code != http.StatusAccepted {
		t.Fatalf("forwarded submit = %d: %s", w.Code, w.Body.String())
	}
	ack := decode[ackJSON](t, w)
	if ack.ID == "" || ack.Node == "" {
		t.Fatalf("ack = %+v, want id and node", ack)
	}
	if !slices.Contains(owners, cluster.NodeID(ack.Node)) {
		t.Fatalf("acked by %s, want one of the owners %v", ack.Node, owners)
	}
	st := pollJob(t, env.handlers[cluster.NodeID(ack.Node)], ack.ID)
	if st.State != "done" {
		t.Fatalf("job on owner = %+v", st)
	}
	// The inline CSV was registered on the owner under its content hash.
	if _, ok := env.servers[cluster.NodeID(ack.Node)].reg.Get(registry.Hash(hash)); !ok {
		t.Errorf("dataset %s not resident on the owner that ran the job", hash)
	}
	// No read proxying: the ingress holds no state for the job.
	if w := do(t, env.handlers[ingress], http.MethodGet, "/jobs/"+ack.ID, ""); w.Code != http.StatusNotFound {
		t.Errorf("GET on ingress = %d, want 404", w.Code)
	}
	if s := env.nodes[ingress].Stats(); s.ForwardsOut != 1 {
		t.Errorf("ingress forwards_out = %d, want 1", s.ForwardsOut)
	}
	// Submit-time and terminal records both fan out to the other owner.
	for _, id := range owners {
		if id == cluster.NodeID(ack.Node) {
			continue
		}
		waitUntil(t, 5*time.Second, "handoff record on the second owner", func() bool {
			return env.nodes[id].Stats().HandoffRecords >= 1
		})
	}
}

// TestClusterForwardExploreAndSignificance: async /explore and
// /significance on a node that does not own the dataset are forwarded
// like POST /jobs: the ingress counts one forward for each, the ack
// names an owner, and the result on that owner is its sync answer to
// the same question, apart from cache_hit.
func TestClusterForwardExploreAndSignificance(t *testing.T) {
	env := newClusterEnv(t, 17, envConfig{}, "n1", "n2", "n3")
	hash := sampleHash()
	owners := env.owners(hash)
	ingress := env.nonOwner(t, hash)
	if w := do(t, env.handlers[ingress], http.MethodPost, "/datasets", sampleCSV); w.Code != http.StatusOK {
		t.Fatalf("register = %d: %s", w.Code, w.Body.String())
	}
	for _, id := range owners {
		waitUntil(t, 5*time.Second, "spill replica on owner "+string(id), func() bool {
			_, ok := env.servers[id].reg.Get(registry.Hash(hash))
			return ok
		})
	}
	for i, c := range []struct{ path, body string }{
		{"/explore", `{"dataset":%q,"support":0.1,"metric":"FPR","topk":5%s}`},
		{"/significance", `{"dataset":%q,"support":0.1,"metric":"FNR","permutations":40,"seed":2%s}`},
	} {
		w := do(t, env.handlers[ingress], http.MethodPost, c.path, fmt.Sprintf(c.body, hash, `,"async":true`))
		if w.Code != http.StatusAccepted {
			t.Fatalf("async %s on the ingress = %d: %s", c.path, w.Code, w.Body.String())
		}
		if out := env.nodes[ingress].Stats().ForwardsOut; out != int64(i+1) {
			t.Errorf("after async %s the ingress forwards_out = %d, want %d", c.path, out, i+1)
		}
		ack := decode[ackJSON](t, w)
		owner := cluster.NodeID(ack.Node)
		if ack.ID == "" || !slices.Contains(owners, owner) {
			t.Fatalf("async %s ack = %+v, want an id and one of the owners %v", c.path, ack, owners)
		}
		if st := pollJob(t, env.handlers[owner], ack.ID); st.State != "done" || st.Dataset != hash {
			t.Fatalf("async %s on its owner = %+v", c.path, st)
		}
		async := do(t, env.handlers[owner], http.MethodGet, "/jobs/"+ack.ID+"/result", "")
		sync := do(t, env.handlers[owner], http.MethodPost, c.path, fmt.Sprintf(c.body, hash, ""))
		if async.Code != http.StatusOK || sync.Code != http.StatusOK {
			t.Fatalf("%s on the owner: async result %d, sync %d: %s %s",
				c.path, async.Code, sync.Code, async.Body.String(), sync.Body.String())
		}
		got, want := cacheHitField.ReplaceAll(async.Body.Bytes(), nil), cacheHitField.ReplaceAll(sync.Body.Bytes(), nil)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: forwarded result differs from the owner's sync answer at byte %d:\nwant: %s\ngot:  %s",
				c.path, firstDiff(got, want), want, got)
		}
	}
}

// FuzzForwardedJob: a POST /internal/jobs body is untrusted bytes on a
// clustered node's listener. Decoded as handleForwardedJob and RunJob
// decode it, no body panics, only the three kinds are accepted, each as
// the spec type its kind names, and an accepted work reads the dataset
// the forward was placed by. The seeds are one forward of each kind,
// each of which must decode back to the work it encodes, and a bare
// analysis forward with no kind and a tenant beside the spec, as
// earlier builds sent.
func FuzzForwardedJob(f *testing.F) {
	hash := registry.Hash(sampleHash())
	for _, work := range []jobs.Work{
		jobs.Spec{Dataset: hash, TruthCol: "truth", PredCol: "pred", Support: 0.1, Metrics: []string{"FPR"}, TopK: 10, Tenant: "t"},
		jobs.ExploreSpec{Dataset: hash, TruthCol: "truth", PredCol: "pred", Support: 0.1, Metric: "ER", TopK: 5, MaxPatterns: 50},
		jobs.SignificanceSpec{Dataset: hash, TruthCol: "truth", PredCol: "pred", Support: 0.1, Method: jobs.MethodWY, Alpha: 0.1, Permutations: 40, Seed: 3, Tenant: "t"},
	} {
		req, err := forwardOf(work)
		if err != nil {
			f.Fatal(err)
		}
		if got, err := forwardedWork(req.Kind, req.SpecJSON, req.Dataset); err != nil || !reflect.DeepEqual(got, work) {
			f.Fatalf("forward of %#v decodes to %#v (err %v)", work, got, err)
		}
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	bare, err := json.Marshal(map[string]any{
		"id": "a1", "dataset": hash, "tenant": "t",
		"spec": []byte(`{"Dataset":"` + hash + `","TruthCol":"truth","PredCol":"pred","Support":0.05,"Metrics":["FPR","FNR"],"Epsilon":0,"TopK":10,"Alpha":0,"Tenant":"t"}`),
	})
	if err != nil {
		f.Fatal(err)
	}
	var req cluster.JobRequest
	if err := json.Unmarshal(bare, &req); err != nil {
		f.Fatal(err)
	}
	if w, err := forwardedWork(req.Kind, req.SpecJSON, req.Dataset); err != nil || w.(jobs.Spec).Tenant != "t" {
		f.Fatalf("bare analysis forward decodes to %#v (err %v), want its analysis spec", w, err)
	}
	f.Add(bare)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req cluster.JobRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		work, err := forwardedWork(req.Kind, req.SpecJSON, req.Dataset)
		if err != nil {
			return
		}
		var kind string
		switch work.(type) {
		case jobs.Spec:
		case jobs.ExploreSpec:
			kind = kindExplore
		case jobs.SignificanceSpec:
			kind = kindSignificance
		default:
			t.Fatalf("accepted a %T", work)
		}
		if kind != req.Kind {
			t.Fatalf("kind %q decoded as a %T", req.Kind, work)
		}
		if ds, _ := work.Source(); string(ds) != req.Dataset {
			t.Fatalf("accepted work reads dataset %q, the forward names %q", ds, req.Dataset)
		}
	})
}

// TestClusterOwnerRunsLocally: a submit on an owner short-circuits the
// transport entirely and answers with the full job document.
func TestClusterOwnerRunsLocally(t *testing.T) {
	env := newClusterEnv(t, 12, envConfig{}, "n1", "n2", "n3")
	owner := env.owners(sampleHash())[0]

	w := do(t, env.handlers[owner], http.MethodPost, "/jobs?metric=FPR", sampleCSV)
	if w.Code != http.StatusAccepted {
		t.Fatalf("local submit = %d: %s", w.Code, w.Body.String())
	}
	j := decode[jobJSON](t, w)
	if j.CreatedAt == "" {
		t.Fatalf("local submit returned %q, want the full job document", w.Body.String())
	}
	if st := pollJob(t, env.handlers[owner], j.ID); st.State != "done" {
		t.Fatalf("job = %+v", st)
	}
	if s := env.nodes[owner].Stats(); s.ForwardsOut != 0 {
		t.Errorf("owner forwards_out = %d, want 0", s.ForwardsOut)
	}
}

// TestClusterDatasetReplicatedToOwners: POST /datasets pushes the
// canonical bytes to the hash's owners, so a later submit-by-hash mines
// on an owner without re-uploading.
func TestClusterDatasetReplicatedToOwners(t *testing.T) {
	env := newClusterEnv(t, 13, envConfig{}, "n1", "n2", "n3")
	hash := sampleHash()
	ingress := env.nonOwner(t, hash)

	if w := do(t, env.handlers[ingress], http.MethodPost, "/datasets", sampleCSV); w.Code != http.StatusOK {
		t.Fatalf("register = %d: %s", w.Code, w.Body.String())
	}
	for _, id := range env.owners(hash) {
		id := id
		waitUntil(t, 5*time.Second, "spill replica on owner "+string(id), func() bool {
			_, ok := env.servers[id].reg.Get(registry.Hash(hash))
			return ok
		})
	}
	w := do(t, env.handlers[ingress], http.MethodPost, "/jobs?dataset="+hash+"&metric=FPR", "")
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit by hash = %d: %s", w.Code, w.Body.String())
	}
	ack := decode[ackJSON](t, w)
	if st := pollJob(t, env.handlers[cluster.NodeID(ack.Node)], ack.ID); st.State != "done" {
		t.Fatalf("job mined from replicated dataset = %+v", st)
	}
}

// TestClusterForwardAdmissionDenied: an owner's quota denial surfaces
// at the ingress as 429 with Retry-After, is not hedged into another
// replica, and other tenants keep flowing; the grant is released when
// the running job terminates.
func TestClusterForwardAdmissionDenied(t *testing.T) {
	release := make(chan struct{})
	env := newClusterEnv(t, 14, envConfig{
		analyze: gatedAnalyze(release),
		admission: func(cluster.NodeID) *admission.Controller {
			return admission.NewController(admission.Limits{},
				map[string]admission.Limits{"greedy": {MaxActive: 1}}, nil)
		},
	}, "n1", "n2", "n3")
	hash := sampleHash()
	ingress := env.nonOwner(t, hash)
	h := env.handlers[ingress]

	w := doTenant(t, h, http.MethodPost, "/jobs?support=0.1", sampleCSV, "greedy")
	if w.Code != http.StatusAccepted {
		t.Fatalf("first greedy submit = %d: %s", w.Code, w.Body.String())
	}
	first := decode[ackJSON](t, w)

	w = doTenant(t, h, http.MethodPost, "/jobs?support=0.2", sampleCSV, "greedy")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("denied forward without Retry-After")
	}
	w = doTenant(t, h, http.MethodPost, "/jobs?support=0.3", sampleCSV, "polite")
	if w.Code != http.StatusAccepted {
		t.Fatalf("other tenant = %d: %s", w.Code, w.Body.String())
	}
	polite := decode[ackJSON](t, w)

	close(release)
	if st := pollJob(t, env.handlers[cluster.NodeID(first.Node)], first.ID); st.State != "done" {
		t.Fatalf("greedy job = %+v", st)
	}
	if st := pollJob(t, env.handlers[cluster.NodeID(polite.Node)], polite.ID); st.State != "done" {
		t.Fatalf("polite job = %+v", st)
	}
	// Terminal release: the slot frees and greedy is admitted again.
	waitUntil(t, 5*time.Second, "quota slot released at terminal", func() bool {
		return doTenant(t, h, http.MethodPost, "/jobs?support=0.4", sampleCSV, "greedy").Code == http.StatusAccepted
	})
}

// TestClusterReplicateBoundsTotal: POST /internal/replicate refuses a
// chunk whose declared total exceeds the largest upload the server
// accepts, so no sender can grow its assembly buffer past that; a
// payload at the limit still assembles.
func TestClusterReplicateBoundsTotal(t *testing.T) {
	env := newClusterEnv(t, 16, envConfig{}, "n1", "n2")
	post := func(c cluster.ReplicaChunk) *httptest.ResponseRecorder {
		body, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		return do(t, env.handlers["n1"], http.MethodPost, cluster.ReplicatePath, string(body))
	}
	chunk := cluster.ReplicaChunk{Origin: "n2", Kind: cluster.ReplicaSpill, Key: "k", Total: DefaultMaxBodyBytes + 1, Data: []byte("abc")}
	if w := post(chunk); w.Code != http.StatusBadRequest {
		t.Fatalf("oversized replica chunk = %d: %s", w.Code, w.Body.String())
	}
	chunk.Total = DefaultMaxBodyBytes
	w := post(chunk)
	if w.Code != http.StatusOK || decode[cluster.ReplicaAck](t, w).Have != 3 {
		t.Fatalf("replica chunk at the limit = %d: %s", w.Code, w.Body.String())
	}
}

// TestClusterHTTPTransportEndToEnd drives two full servers over real
// HTTP: gossip, dataset replication, and a hedged forward all travel
// through the /internal/* endpoints and the HTTPTransport error
// mapping.
func TestClusterHTTPTransportEndToEnd(t *testing.T) {
	ids := []cluster.NodeID{"n1", "n2"}
	servers := make(map[cluster.NodeID]*Server, 2)
	nodes := make(map[cluster.NodeID]*cluster.Node, 2)
	urls := make(map[cluster.NodeID]string, 2)
	for _, id := range ids {
		s := newTestServer(t, Options{})
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			s.Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		servers[id] = s
		urls[id] = ts.URL
	}
	for i, id := range ids {
		peer := ids[1-i]
		node, err := cluster.NewNode(cluster.Options{
			Self:              id,
			Peers:             []cluster.NodeID{peer},
			ReplicationFactor: 1,
			AttemptTimeout:    2 * time.Second,
			MaxAttempts:       2,
			BackoffBase:       time.Millisecond,
			BackoffCap:        4 * time.Millisecond,
			HedgeAfter:        200 * time.Millisecond,
			ChunkSize:         128,
			Transport:         cluster.NewHTTPTransport(urls, nil),
			Local:             servers[id].ClusterLocal(),
			Seed:              int64(i) + 1,
		})
		if err != nil {
			t.Fatalf("NewNode(%s): %v", id, err)
		}
		servers[id].AttachCluster(node)
		nodes[id] = node
	}
	hash := sampleHash()
	owner := nodes[ids[0]].Owners(hash)[0] // replication 1: a single owner
	ingress := ids[0]
	if ingress == owner {
		ingress = ids[1]
	}

	// Dataset replication over POST /internal/replicate.
	if w := do(t, servers[ingress].Handler(), http.MethodPost, "/datasets", sampleCSV); w.Code != http.StatusOK {
		t.Fatalf("register = %d: %s", w.Code, w.Body.String())
	}
	waitUntil(t, 5*time.Second, "spill replica on the owner over HTTP", func() bool {
		return do(t, servers[owner].Handler(), http.MethodGet, "/datasets/"+hash, "").Code == http.StatusOK
	})

	// A spec the engine refuses is a 400 at the ingress too, not the
	// owner's refusal relayed as a peer rejection.
	if w := do(t, servers[ingress].Handler(), http.MethodPost, "/explore",
		`{"dataset":"`+hash+`","metric":"nope","async":true}`); w.Code != http.StatusBadRequest {
		t.Fatalf("forwarded bad explore = %d: %s", w.Code, w.Body.String())
	}

	// Forward over POST /internal/jobs.
	w := do(t, servers[ingress].Handler(), http.MethodPost, "/jobs?dataset="+hash+"&metric=FPR", "")
	if w.Code != http.StatusAccepted {
		t.Fatalf("forwarded submit = %d: %s", w.Code, w.Body.String())
	}
	ack := decode[ackJSON](t, w)
	if ack.Node != string(owner) {
		t.Fatalf("acked by %s, want %s", ack.Node, owner)
	}
	if st := pollJob(t, servers[owner].Handler(), ack.ID); st.State != "done" {
		t.Fatalf("job = %+v", st)
	}

	// Gossip over POST /internal/gossip.
	nodes[ingress].Tick()
	waitUntil(t, 5*time.Second, "heartbeat received over HTTP", func() bool {
		return nodes[owner].Stats().HeartbeatsRecv >= 1
	})
}

// frozenClock pins a cluster node's clock so health rows (phi, last
// heartbeat) render identically across consecutive snapshots.
type frozenClock struct{ at time.Time }

func (c frozenClock) Now() time.Time                       { return c.at }
func (c frozenClock) After(time.Duration) <-chan time.Time { return nil }

// TestStatszDeterministic: with the clock pinned, two consecutive GET
// /statsz bodies are byte-identical, and the cluster and admission
// sections list peers and tenants in sorted order.
func TestStatszDeterministic(t *testing.T) {
	frozen := frozenClock{at: time.Unix(1700000000, 0).UTC()}
	env := newClusterEnv(t, 15, envConfig{
		admission: func(id cluster.NodeID) *admission.Controller {
			if id != "n1" {
				return nil
			}
			return admission.NewController(admission.Limits{}, map[string]admission.Limits{
				"beta":  {MaxActive: 3},
				"alpha": {Weight: 2},
			}, nil)
		},
		clock: func(id cluster.NodeID) cluster.Clock {
			if id == "n1" {
				return frozen
			}
			return nil
		},
	}, "n1", "n2", "n3")

	// Populate the peers section: both peers heartbeat n1 once.
	env.nodes["n2"].Tick()
	env.nodes["n3"].Tick()
	waitUntil(t, 5*time.Second, "heartbeats folded into n1", func() bool {
		return env.nodes["n1"].Stats().HeartbeatsRecv >= 2
	})

	h := env.handlers["n1"]
	w1 := do(t, h, http.MethodGet, "/statsz", "")
	w2 := do(t, h, http.MethodGet, "/statsz", "")
	if w1.Code != http.StatusOK || w2.Code != http.StatusOK {
		t.Fatalf("statsz = %d / %d", w1.Code, w2.Code)
	}
	if w1.Body.String() != w2.Body.String() {
		t.Fatalf("consecutive statsz bodies differ:\n%s\n---\n%s", w1.Body.String(), w2.Body.String())
	}
	body := w1.Body.String()
	for _, want := range []string{`"cluster"`, `"admission"`, `"self": "n1"`} {
		if !strings.Contains(body, want) {
			t.Errorf("statsz missing %s: %s", want, body)
		}
	}
	// Sorted-key contract: tenants by name, peers by node ID.
	if a, b := strings.Index(body, `"alpha"`), strings.Index(body, `"beta"`); a < 0 || b < 0 || a > b {
		t.Errorf("tenant rows not sorted (alpha@%d, beta@%d)", a, b)
	}
	if a, b := strings.Index(body, `"node": "n2"`), strings.Index(body, `"node": "n3"`); a < 0 || b < 0 || a > b {
		t.Errorf("peer rows not sorted (n2@%d, n3@%d)", a, b)
	}

	stats := decode[statszJSON](t, w1)
	if stats.Cluster == nil || stats.Cluster.Members != 3 {
		t.Fatalf("cluster section = %+v", stats.Cluster)
	}
	if len(stats.Admission) != 2 || stats.Admission[0].Tenant != "alpha" || stats.Admission[0].Weight != 2 {
		t.Fatalf("admission section = %+v", stats.Admission)
	}
}
