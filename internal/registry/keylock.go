package registry

import "sync"

// keyLocks is a refcounted set of per-hash mutexes serializing the
// registry's slow paths — disk promotion, the spill-then-evict cycle,
// and Remove — per content address. The fast paths (memory-hit Get,
// Register's probe and insert) never touch it; what the per-hash lock
// buys is that the multi-step tier transitions, each of which reads or
// writes the spill file outside the memory LRU's lock, cannot
// interleave for the same dataset. Without it, two evictors can double-spill one victim and the
// loser — seeing the entry gone and assuming a concurrent Remove —
// deletes the spill file the winner just wrote (silent data loss), and
// a promotion racing a Remove can re-insert a dataset after its DELETE
// was acknowledged.
//
// A lock exists only while held or contended: lock refcounts the entry
// under the table mutex, unlock drops it and deletes the entry at zero,
// so the table is bounded by in-flight operations, not by history.
type keyLocks struct {
	mu sync.Mutex
	m  map[Hash]*keyLock
}

type keyLock struct {
	refs int
	mu   sync.Mutex
}

// lock acquires the mutex for h, creating it on first use. A goroutine
// must never hold two key locks at once (the callers in registry.go
// release theirs before budget enforcement can acquire another), and no
// lru.Cache method calls out while holding the LRU's own lock — together
// the two rules make deadlock impossible.
func (k *keyLocks) lock(h Hash) {
	k.mu.Lock()
	if k.m == nil {
		k.m = make(map[Hash]*keyLock)
	}
	kl := k.m[h]
	if kl == nil {
		kl = &keyLock{}
		k.m[h] = kl
	}
	kl.refs++
	k.mu.Unlock()
	kl.mu.Lock()
}

// unlock releases the mutex for h, discarding it once no goroutine
// holds or waits on it.
func (k *keyLocks) unlock(h Hash) {
	k.mu.Lock()
	kl := k.m[h]
	kl.refs--
	if kl.refs == 0 {
		delete(k.m, h)
	}
	k.mu.Unlock()
	kl.mu.Unlock()
}
