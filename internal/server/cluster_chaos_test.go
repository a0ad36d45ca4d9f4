// Seeded fault-injection chaos tests over the full server stack: node
// kill mid-mine with replica adoption, slow-walked owners triggering
// hedges, and partition failover with post-heal resurrection. The
// acceptance property throughout: no job is lost and none completes on
// more than one live node.

package server

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/registry"
)

// TestClusterChaosKillOwnerMidMine is the headline failover scenario:
// R=2, five jobs blocked mid-mine on the primary owner, the primary is
// killed, and the surviving replica adopts every handed-off record and
// runs each job to done exactly once among the live nodes.
func TestClusterChaosKillOwnerMidMine(t *testing.T) {
	release := make(chan struct{})
	env := newClusterEnv(t, 42, envConfig{
		analyze:   gatedAnalyze(release),
		heartbeat: 10 * time.Millisecond,
		// Effectively disable hedging so every job deterministically
		// lands on the primary before the kill.
		hedgeAfter: 2 * time.Second,
	}, "n1", "n2", "n3")
	hash := sampleHash()
	owners := env.owners(hash)
	primary, secondary := owners[0], owners[1]
	ingress := env.nonOwner(t, hash)

	const jobsN = 5
	ids := make([]string, 0, jobsN)
	for i := 0; i < jobsN; i++ {
		w := do(t, env.handlers[ingress], http.MethodPost,
			fmt.Sprintf("/jobs?support=0.%02d", i+1), sampleCSV)
		if w.Code != http.StatusAccepted {
			t.Fatalf("submit %d = %d: %s", i, w.Code, w.Body.String())
		}
		ack := decode[ackJSON](t, w)
		if ack.Node != string(primary) {
			t.Fatalf("job %d acked by %s, want primary %s", i, ack.Node, primary)
		}
		ids = append(ids, ack.ID)
	}
	// Every accepted record — and the dataset itself — must reach the
	// replica before the kill, or there is nothing to adopt (or no bytes
	// to re-mine from).
	waitUntil(t, 10*time.Second, "handoff records on the replica", func() bool {
		return env.nodes[secondary].Stats().HandoffRecords >= jobsN
	})
	waitUntil(t, 10*time.Second, "spill replica on the replica", func() bool {
		_, ok := env.servers[secondary].reg.Get(registry.Hash(hash))
		return ok
	})

	env.net.Kill(primary)
	waitUntil(t, 15*time.Second, "death detection and adoption", func() bool {
		return env.nodes[secondary].Stats().Adoptions >= jobsN
	})
	close(release)

	// No job lost: every ID reaches done on the adopter.
	for _, id := range ids {
		if st := pollJob(t, env.handlers[secondary], id); st.State != "done" {
			t.Fatalf("adopted job %s = %s, want done", id, st.State)
		}
	}
	// No duplicate completion: exactly one live node holds each job.
	for _, id := range ids {
		holders := 0
		for _, nid := range []cluster.NodeID{secondary, ingress} {
			if do(t, env.handlers[nid], http.MethodGet, "/jobs/"+id, "").Code == http.StatusOK {
				holders++
			}
		}
		if holders != 1 {
			t.Errorf("job %s visible on %d live nodes, want exactly 1", id, holders)
		}
	}
	if d := env.nodes[secondary].Stats().Deaths; d < 1 {
		t.Errorf("replica deaths = %d, want >= 1", d)
	}
}

// TestClusterChaosKillOwnerAdoptsExploreAndSignificance is the
// failover scenario for the other two kinds: on a one-worker primary, a
// significance job blocked mid-mine and an explore job queued behind
// it; the primary is killed, and the surviving replica adopts both
// submitted records and runs each job to done as its own kind.
func TestClusterChaosKillOwnerAdoptsExploreAndSignificance(t *testing.T) {
	release := make(chan struct{})
	env := newClusterEnv(t, 42, envConfig{
		analyze:    gatedAnalyze(release),
		heartbeat:  10 * time.Millisecond,
		hedgeAfter: 2 * time.Second,
		workers:    1,
	}, "n1", "n2", "n3")
	hash := sampleHash()
	owners := env.owners(hash)
	primary, secondary := owners[0], owners[1]
	ingress := env.nonOwner(t, hash)
	if w := do(t, env.handlers[ingress], http.MethodPost, "/datasets", sampleCSV); w.Code != http.StatusOK {
		t.Fatalf("register = %d: %s", w.Code, w.Body.String())
	}
	for _, id := range owners {
		waitUntil(t, 10*time.Second, "spill replica on owner "+string(id), func() bool {
			_, ok := env.servers[id].reg.Get(registry.Hash(hash))
			return ok
		})
	}

	ids := make(map[string]string, 2) // path → job ID
	for _, path := range []string{"/significance", "/explore"} {
		body := fmt.Sprintf(`{"dataset":%q,"support":0.1,"permutations":40,"async":true}`, hash)
		if path == "/explore" {
			body = fmt.Sprintf(`{"dataset":%q,"support":0.1,"async":true}`, hash)
		}
		w := do(t, env.handlers[ingress], http.MethodPost, path, body)
		if w.Code != http.StatusAccepted {
			t.Fatalf("async %s = %d: %s", path, w.Code, w.Body.String())
		}
		ack := decode[ackJSON](t, w)
		if ack.Node != string(primary) {
			t.Fatalf("async %s acked by %s, want primary %s", path, ack.Node, primary)
		}
		ids[path] = ack.ID
	}
	// The significance job holds the primary's one worker mid-mine.
	if st := decode[jobJSON](t, do(t, env.handlers[primary], http.MethodGet, "/jobs/"+ids["/explore"], "")); st.State != "queued" {
		t.Fatalf("explore job on the primary = %+v, want queued behind the significance job", st)
	}
	waitUntil(t, 10*time.Second, "handoff records on the replica", func() bool {
		return env.nodes[secondary].Stats().HandoffRecords >= 2
	})

	env.net.Kill(primary)
	waitUntil(t, 15*time.Second, "death detection and adoption", func() bool {
		return env.nodes[secondary].Stats().Adoptions >= 2
	})
	close(release)

	for path, id := range ids {
		if st := pollJob(t, env.handlers[secondary], id); st.State != "done" {
			t.Fatalf("adopted %s job = %+v, want done", path, st)
		}
		w := do(t, env.handlers[secondary], http.MethodGet, "/jobs/"+id+"/result", "")
		if w.Code != http.StatusOK || strings.Contains(w.Body.String(), "frequent_itemsets") {
			t.Fatalf("adopted %s result = %d, want its own outcome, not an analysis body: %s", path, w.Code, w.Body.String())
		}
		if path == "/significance" {
			if out := decode[jobs.SignificanceOutcome](t, w); out.Method != jobs.MethodWY || out.Permutations != 40 || out.Hypotheses == 0 {
				t.Errorf("adopted significance outcome = %+v", out)
			}
		} else if out := decode[jobs.ExploreOutcome](t, w); out.Reason != "exhausted" || out.Metric != "ER" || len(out.Top) == 0 {
			t.Errorf("adopted explore outcome = %+v", out)
		}
	}
}

// TestClusterChaosSlowOwnerHedges: a slow-walked primary trips the
// hedge timer and the job completes on the next replica instead of
// stalling behind the slow peer.
func TestClusterChaosSlowOwnerHedges(t *testing.T) {
	env := newClusterEnv(t, 9, envConfig{hedgeAfter: 20 * time.Millisecond}, "n1", "n2", "n3")
	hash := sampleHash()
	owners := env.owners(hash)
	ingress := env.nonOwner(t, hash)

	env.net.SlowWalk(owners[0], 300*time.Millisecond)

	start := time.Now()
	w := do(t, env.handlers[ingress], http.MethodPost, "/jobs?metric=FPR", sampleCSV)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", w.Code, w.Body.String())
	}
	ack := decode[ackJSON](t, w)
	if ack.Node != string(owners[1]) {
		t.Fatalf("acked by %s, want the hedged replica %s", ack.Node, owners[1])
	}
	if took := time.Since(start); took >= 300*time.Millisecond {
		t.Errorf("submit took %s, hedging should beat the %s slow-walk", took, 300*time.Millisecond)
	}
	if h := env.nodes[ingress].Stats().Hedges; h < 1 {
		t.Errorf("ingress hedges = %d, want >= 1", h)
	}
	if st := pollJob(t, env.handlers[cluster.NodeID(ack.Node)], ack.ID); st.State != "done" {
		t.Fatalf("hedged job = %+v", st)
	}
}

// TestClusterChaosPartitionFailover: with the primary partitioned away,
// submits fail over to the surviving replica; after the partition
// heals, the primary is resurrected and takes traffic again.
func TestClusterChaosPartitionFailover(t *testing.T) {
	env := newClusterEnv(t, 21, envConfig{
		heartbeat:  10 * time.Millisecond,
		hedgeAfter: 20 * time.Millisecond,
	}, "n1", "n2", "n3")
	hash := sampleHash()
	owners := env.owners(hash)
	primary, secondary := owners[0], owners[1]
	ingress := env.nonOwner(t, hash)

	env.net.Partition([]cluster.NodeID{primary}, []cluster.NodeID{secondary, ingress})

	w := do(t, env.handlers[ingress], http.MethodPost, "/jobs?metric=FPR", sampleCSV)
	if w.Code != http.StatusAccepted {
		t.Fatalf("partitioned submit = %d: %s", w.Code, w.Body.String())
	}
	ack := decode[ackJSON](t, w)
	if ack.Node != string(secondary) {
		t.Fatalf("acked by %s, want failover to %s", ack.Node, secondary)
	}
	if st := pollJob(t, env.handlers[secondary], ack.ID); st.State != "done" {
		t.Fatalf("failover job = %+v", st)
	}
	waitUntil(t, 15*time.Second, "partitioned primary declared dead", func() bool {
		return env.nodes[ingress].Stats().Deaths >= 1
	})

	env.net.HealPartition()
	waitUntil(t, 15*time.Second, "primary resurrected after heal", func() bool {
		return env.nodes[ingress].Stats().Resurrections >= 1
	})
	// The healed primary serves again: a fresh job routes back to it.
	w = do(t, env.handlers[ingress], http.MethodPost, "/jobs?support=0.2", sampleCSV)
	if w.Code != http.StatusAccepted {
		t.Fatalf("post-heal submit = %d: %s", w.Code, w.Body.String())
	}
	ack = decode[ackJSON](t, w)
	if ack.Node != string(primary) {
		t.Fatalf("post-heal ack = %s, want the healed primary %s", ack.Node, primary)
	}
	if st := pollJob(t, env.handlers[primary], ack.ID); st.State != "done" {
		t.Fatalf("post-heal job = %+v", st)
	}
}
