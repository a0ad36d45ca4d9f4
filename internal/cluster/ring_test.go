package cluster

import (
	"fmt"
	"math"
	"testing"
)

func TestRingOwnersBasics(t *testing.T) {
	r := NewRing(64)
	for _, id := range []NodeID{"a", "b", "c"} {
		r.Add(id)
	}
	owners := r.Owners("some-key", 2)
	if len(owners) != 2 {
		t.Fatalf("Owners = %v, want 2 distinct owners", owners)
	}
	if owners[0] == owners[1] {
		t.Fatalf("Owners returned a duplicate: %v", owners)
	}
	// Asking for more replicas than members yields all members.
	if got := r.Owners("some-key", 5); len(got) != 3 {
		t.Fatalf("Owners(n=5) = %v, want all 3 members", got)
	}
	if r.Primary("some-key") != owners[0] {
		t.Fatalf("Primary disagrees with Owners[0]")
	}
	if got := NewRing(8).Owners("k", 2); got != nil {
		t.Fatalf("empty ring Owners = %v, want nil", got)
	}
}

func TestRingDeterministicAcrossInsertionOrder(t *testing.T) {
	mk := func(ids ...NodeID) *Ring {
		r := NewRing(32)
		for _, id := range ids {
			r.Add(id)
		}
		return r
	}
	r1 := mk("a", "b", "c", "d")
	r2 := mk("d", "c", "b", "a")
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		o1, o2 := r1.Owners(key, 3), r2.Owners(key, 3)
		if fmt.Sprint(o1) != fmt.Sprint(o2) {
			t.Fatalf("key %s: owners depend on insertion order: %v vs %v", key, o1, o2)
		}
	}
}

func TestRingStabilityUnderMembershipChange(t *testing.T) {
	r := NewRing(64)
	for _, id := range []NodeID{"a", "b", "c", "d"} {
		r.Add(id)
	}
	const keys = 2000
	before := make(map[string]NodeID, keys)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		before[k] = r.Primary(k)
	}
	r.Remove("d")
	moved, lostOwner := 0, 0
	for k, owner := range before {
		now := r.Primary(k)
		if owner == "d" {
			lostOwner++
			continue // these must move; they had a dead primary
		}
		if now != owner {
			moved++
		}
	}
	// Consistent hashing: keys not owned by the removed node must not
	// move. (That is the whole point of the structure.)
	if moved != 0 {
		t.Fatalf("%d/%d keys with surviving primaries moved on Remove", moved, keys-lostOwner)
	}
	if lostOwner == 0 {
		t.Fatalf("degenerate ring: removed member owned no keys")
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing(DefaultVirtualNodes)
	members := []NodeID{"a", "b", "c", "d", "e"}
	for _, id := range members {
		r.Add(id)
	}
	counts := map[NodeID]int{}
	const keys = 10000
	for i := 0; i < keys; i++ {
		counts[r.Primary(fmt.Sprintf("key-%d", i))]++
	}
	want := float64(keys) / float64(len(members))
	for _, id := range members {
		dev := math.Abs(float64(counts[id])-want) / want
		if dev > 0.5 {
			t.Errorf("member %s owns %d keys, >50%% off the fair share %.0f", id, counts[id], want)
		}
	}
}

func TestRingRendezvousTiebreakIsPerKey(t *testing.T) {
	// Two members with identical point positions (forced by a 0-vnode
	// trick is impossible; instead assert the tiebreak function itself
	// orders differently for different keys, which is what makes a tie
	// split load instead of always favoring one member).
	a, b := NodeID("node-a"), NodeID("node-b")
	varies := false
	for i := 0; i < 64 && !varies; i++ {
		k1 := fmt.Sprintf("k%d", i)
		k2 := fmt.Sprintf("k%d", i+1)
		if (rendezvous(k1, a) > rendezvous(k1, b)) != (rendezvous(k2, a) > rendezvous(k2, b)) {
			varies = true
		}
	}
	if !varies {
		t.Fatalf("rendezvous tiebreak always favors the same member")
	}
}

// TestRingOwnersAllocatesOnlyResult pins the lookup every clustered
// submit pays to one allocation: the returned owner list.
func TestRingOwnersAllocatesOnlyResult(t *testing.T) {
	r := NewRing(DefaultVirtualNodes)
	for i := 0; i < 8; i++ {
		r.Add(NodeID(fmt.Sprintf("node-%d", i)))
	}
	key := fmt.Sprintf("dataset-hash-%064d", 7)
	if got := testing.AllocsPerRun(100, func() { r.Owners(key, 2) }); got != 1 {
		t.Errorf("Owners allocates %v per lookup, want 1", got)
	}
}

func BenchmarkRingLookup(b *testing.B) {
	r := NewRing(DefaultVirtualNodes)
	for i := 0; i < 8; i++ {
		r.Add(NodeID(fmt.Sprintf("node-%d", i)))
	}
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("dataset-hash-%064d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := r.Owners(keys[i%len(keys)], 2); len(got) != 2 {
			b.Fatalf("Owners = %v", got)
		}
	}
}
