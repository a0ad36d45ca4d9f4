package cluster

import (
	"cmp"
	"slices"
	"sort"
	"sync"
)

// NodeID names a cluster member. IDs are operator-chosen strings
// (-node-id); placement depends only on the ID, so a restarted node
// with the same ID owns the same keys.
type NodeID string

// DefaultVirtualNodes is the number of points each member contributes
// to the ring. More points smooth the load split between members at the
// cost of a larger sorted array; 64 keeps the imbalance under a few
// percent for small clusters while a full lookup stays one binary
// search.
const DefaultVirtualNodes = 64

// ringPoint is one virtual node: a position on the 64-bit ring owned by
// a member.
type ringPoint struct {
	pos  uint64
	node NodeID
}

// Ring is a consistent-hash ring with virtual nodes. Owners(key, r)
// walks clockwise from the key's position collecting distinct members —
// the replica set in priority order. Ties (two virtual points hashing
// to the same position, possible with adversarial IDs) are broken by
// rendezvous hashing: the member with the higher hash of key+ID wins,
// so the ordering never depends on map iteration or insertion order.
// All methods are safe for concurrent use.
type Ring struct {
	vnodes int

	mu      sync.RWMutex
	points  []ringPoint // sorted by pos
	members map[NodeID]bool
}

// NewRing builds an empty ring with vnodes (> 0) virtual points per
// member.
func NewRing(vnodes int) *Ring {
	return &Ring{vnodes: vnodes, members: make(map[NodeID]bool)}
}

// fnv64 is FNV-1a over s, inlined for the lookup hot path (hash/fnv
// allocates a hasher per call).
func fnv64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	x := uint64(offset64)
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= prime64
	}
	return x
}

// mix64 is a splitmix-style finalizer: FNV-1a's upper bits are weakly
// mixed for short inputs, and ring positions compare most-significant
// bit first, so every position goes through this before landing on the
// ring.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// pointPos hashes virtual point i of node id onto the ring.
func pointPos(id NodeID, i int) uint64 {
	return mix64(fnv64(string(id)) ^ (uint64(i) + 0x9e3779b97f4a7c15))
}

// Add inserts a member's virtual points. Adding a present member is a
// no-op.
func (r *Ring) Add(id NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[id] {
		return
	}
	r.members[id] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{pos: pointPos(id, i), node: id})
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].pos != r.points[b].pos {
			return r.points[a].pos < r.points[b].pos
		}
		// Equal positions: rendezvous order on the bare ID keeps the
		// sorted array itself deterministic; per-key tiebreak happens in
		// Owners.
		return r.points[a].node < r.points[b].node
	})
}

// Remove drops a member and its virtual points. Removing an absent
// member is a no-op.
func (r *Ring) Remove(id NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.members[id] {
		return
	}
	delete(r.members, id)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != id {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Members returns the current member set, sorted.
func (r *Ring) Members() []NodeID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]NodeID, 0, len(r.members))
	for id := range r.members {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Size returns the number of members.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Owners returns up to n distinct members for key, walking clockwise
// from the key's ring position. The first element is the primary owner;
// the rest are the replicas in failover priority order. Fewer than n
// members yields all of them. An empty ring yields nil.
//
// When several virtual points share the key's successor position (a
// hash tie), the winner among the tied members is chosen by rendezvous
// hashing — highest fnv64(key + "\x00" + member) first — so the answer
// is a pure function of (key, member set), independent of insertion
// order.
func (r *Ring) Owners(key string, n int) []NodeID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if n <= 0 || len(r.points) == 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	pos := mix64(fnv64(key))
	// First point at or after pos, wrapping.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	out := make([]NodeID, 0, n)
	contains := func(id NodeID) bool { // n is tiny (the replication factor)
		for _, have := range out {
			if have == id {
				return true
			}
		}
		return false
	}
	for scanned := 0; scanned < len(r.points) && len(out) < n; {
		p := r.points[(i+scanned)%len(r.points)]
		// Collect the run of points sharing this position and resolve the
		// tie by rendezvous before admitting any of them.
		run := []NodeID{p.node}
		for scanned+len(run) < len(r.points) {
			q := r.points[(i+scanned+len(run))%len(r.points)]
			if q.pos != p.pos {
				break
			}
			run = append(run, q.node)
		}
		if len(run) > 1 {
			// Highest rendezvous score first. slices.SortFunc keeps run on
			// the stack, where sort.Slice would move it to the heap.
			slices.SortFunc(run, func(a, b NodeID) int {
				return cmp.Compare(rendezvous(key, b), rendezvous(key, a))
			})
		}
		for _, id := range run {
			if !contains(id) {
				out = append(out, id)
				if len(out) == n {
					break
				}
			}
		}
		scanned += len(run)
	}
	return out
}

// rendezvous scores member id for key; higher wins.
func rendezvous(key string, id NodeID) uint64 {
	return fnv64(key + "\x00" + string(id))
}

// Primary returns the first owner for key, or "" on an empty ring.
func (r *Ring) Primary(key string) NodeID {
	owners := r.Owners(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}
