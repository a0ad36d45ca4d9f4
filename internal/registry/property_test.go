package registry

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// The property suite drives seeded random Register/Get/Remove streams
// against the registry and checks three invariants:
//
//	(a) after every operation, the registry matches a reference model —
//	    a byte-budgeted LRU kept as a plain slice — in its recency order
//	    (and so its resident set), bytes, entries, counters and every
//	    operation's return value;
//	(b) total resident bytes never exceed the budget, except for the
//	    carve-out both share: a sole entry larger than the whole budget
//	    stays resident;
//	(c) the counters reconcile — every Get and Register moves exactly
//	    one of hits/misses, so hits+misses equals the number of lookups.
//
// The concurrent test checks (b) and (c) at quiescence, and exists
// chiefly to give -race real interleavings to chew on.

// propCSV builds the i-th distinct dataset of the key pool, with a
// payload size that varies by key so evictions free uneven byte counts.
func propCSV(i int) []byte {
	var rows []byte
	for r := 0; r <= i%7; r++ {
		rows = append(rows, []byte(fmt.Sprintf("k%d-%d,v%d\n", i, r, r))...)
	}
	return append([]byte("a,b\n"), rows...)
}

// propPool returns the key pool's CSVs, their hashes and charged sizes.
func propPool(t *testing.T, n int) (pool [][]byte, hashes []Hash, sizes []int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		csv := propCSV(i)
		e, _, err := New(0).Register(csv, dataset.CSVOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pool, hashes, sizes = append(pool, csv), append(hashes, e.Hash), append(sizes, e.Bytes)
	}
	return pool, hashes, sizes
}

// recency returns the resident content addresses, most recently used
// first. Unlike Get it does not touch LRU state, so comparisons do not
// perturb what they observe.
func (r *Registry) recency() []Hash {
	var out []Hash
	for _, e := range r.mem.Values() {
		out = append(out, e.Hash)
	}
	return out
}

// refModel is the reference LRU: pool indices in a slice, least
// recently used first, written for obviousness rather than speed.
type refModel struct {
	budget                  int64
	sizes                   []int64
	order                   []int
	bytes                   int64
	hits, misses, evictions int64
}

// lookup is the shared probe of Register and Get: a hit moves the entry
// to the most recent end.
func (m *refModel) lookup(i int) bool {
	p := slices.Index(m.order, i)
	if p < 0 {
		m.misses++
		return false
	}
	m.hits++
	m.order = append(slices.Delete(m.order, p, p+1), i)
	return true
}

// register inserts on a miss, then evicts the oldest entries while over
// budget; the new entry is the newest, so it goes last, never alone.
func (m *refModel) register(i int) (existed bool) {
	if m.lookup(i) {
		return true
	}
	m.order = append(m.order, i)
	m.bytes += m.sizes[i]
	for m.budget > 0 && m.bytes > m.budget && len(m.order) > 1 {
		m.bytes -= m.sizes[m.order[0]]
		m.order = m.order[1:]
		m.evictions++
	}
	return false
}

func (m *refModel) remove(i int) bool {
	p := slices.Index(m.order, i)
	if p < 0 {
		return false
	}
	m.bytes -= m.sizes[i]
	m.order = slices.Delete(m.order, p, p+1)
	return true
}

// recency returns the model's resident hashes, most recently used first.
func (m *refModel) recency(hashes []Hash) []Hash {
	var out []Hash
	for p := len(m.order) - 1; p >= 0; p-- {
		out = append(out, hashes[m.order[p]])
	}
	return out
}

func TestPropertyMatchesReferenceModel(t *testing.T) {
	const (
		poolSize = 24
		numOps   = 600
	)
	pool, hashes, sizes := propPool(t, poolSize)
	var poolBytes int64
	for _, n := range sizes {
		poolBytes += n
	}
	// A budget around a third of the pool forces steady eviction traffic.
	budget := poolBytes / 3

	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r := New(budget)
			m := &refModel{budget: budget, sizes: sizes}
			var lookups int64
			for op := 0; op < numOps; op++ {
				i := rng.Intn(poolSize)
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					e, existed, err := r.Register(pool[i], dataset.CSVOptions{})
					if err != nil || e.Hash != hashes[i] {
						t.Fatalf("op %d: Register(%d) = %v, %v", op, i, e, err)
					}
					if want := m.register(i); existed != want {
						t.Fatalf("op %d: Register(%d) existed = %v, model %v", op, i, existed, want)
					}
					lookups++
				case 4, 5, 6, 7:
					e, ok := r.Get(hashes[i])
					if want := m.lookup(i); ok != want || (ok && e.Hash != hashes[i]) {
						t.Fatalf("op %d: Get(%d) = %v, %v; model %v", op, i, e, ok, want)
					}
					lookups++
				default:
					if got, want := r.Remove(hashes[i]), m.remove(i); got != want {
						t.Fatalf("op %d: Remove(%d) = %v, model %v", op, i, got, want)
					}
				}

				if got, want := r.recency(), m.recency(hashes); !slices.Equal(got, want) {
					t.Fatalf("op %d: recency diverged:\nregistry %v\nmodel    %v", op, got, want)
				}
				s := r.Stats()
				if s.Bytes != m.bytes || s.Entries != len(m.order) {
					t.Fatalf("op %d: %d entries/%d B, model %d/%d", op, s.Entries, s.Bytes, len(m.order), m.bytes)
				}
				if s.Hits != m.hits || s.Misses != m.misses || s.Evictions != m.evictions {
					t.Fatalf("op %d: hits/misses/evictions %d/%d/%d, model %d/%d/%d",
						op, s.Hits, s.Misses, s.Evictions, m.hits, m.misses, m.evictions)
				}
				if s.Hits+s.Misses != lookups {
					t.Fatalf("op %d: hits(%d)+misses(%d) != %d lookups", op, s.Hits, s.Misses, lookups)
				}
				if s.Bytes > budget && s.Entries > 1 {
					t.Fatalf("op %d: %d resident bytes exceed the %d budget with %d entries",
						op, s.Bytes, budget, s.Entries)
				}
			}
		})
	}
}

// TestPropertyConcurrentInvariants hammers one registry from several
// goroutines with seeded per-goroutine op streams, then checks the
// byte-budget and counter invariants at quiescence. Run under -race this
// doubles as the registry's data-race audit.
func TestPropertyConcurrentInvariants(t *testing.T) {
	const (
		goroutines = 8
		opsEach    = 400
		poolSize   = 24
	)
	pool, hashes, sizes := propPool(t, poolSize)
	var poolBytes int64
	for _, n := range sizes {
		poolBytes += n
	}
	budget := poolBytes / 3

	r := New(budget)
	var wantLookups int64 // exact: computed from the fixed op mix below
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wantLookups += opsEach
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < opsEach; op++ {
				i := rng.Intn(poolSize)
				if rng.Intn(2) == 0 {
					if _, _, err := r.Register(pool[i], dataset.CSVOptions{}); err != nil {
						t.Errorf("Register(%d): %v", i, err)
					}
				} else {
					r.Get(hashes[i])
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()

	s := r.Stats()
	if s.Bytes > budget && s.Entries > 1 {
		t.Errorf("%d resident bytes exceed the %d budget with %d entries", s.Bytes, budget, s.Entries)
	}
	if s.Hits+s.Misses != wantLookups {
		t.Errorf("hits(%d)+misses(%d) = %d, want %d lookups", s.Hits, s.Misses, s.Hits+s.Misses, wantLookups)
	}
	if got := len(r.recency()); got != s.Entries {
		t.Errorf("resident set has %d hashes, stats report %d entries", got, s.Entries)
	}
}
