package lru

import (
	"fmt"
	"sync"
	"testing"
)

// keys returns the resident keys, most recently used first, without
// touching recency.
func keys(c *Cache[string, int]) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry[string, int]).key)
	}
	return out
}

func TestGetCountsAndRefreshesRecency(t *testing.T) {
	c := New[string, int](0)
	c.Add("a", 1, 1)
	c.Add("b", 2, 1)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	if _, ok := c.Get("zz"); ok {
		t.Fatal("Get of an absent key hit")
	}
	if got := fmt.Sprint(keys(c)); got != "[a b]" {
		t.Errorf("order after Get(a) = %s, want [a b]", got)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", s.Hits, s.Misses)
	}
}

func TestAddStoredValueWins(t *testing.T) {
	c := New[string, int](0)
	if v, existed := c.Add("k", 1, 5); existed || v != 1 {
		t.Fatalf("first Add = %d, %v", v, existed)
	}
	c.Add("other", 9, 1)
	v, existed := c.Add("k", 2, 7)
	if !existed || v != 1 {
		t.Fatalf("second Add = %d, %v; want the stored 1, true", v, existed)
	}
	if got, _ := c.Get("k"); got != 1 {
		t.Errorf("Get after duplicate Add = %d, want 1", got)
	}
	s := c.Stats()
	if s.Cost != 6 || s.Entries != 2 {
		t.Errorf("cost/entries = %d/%d, want 6/2 (the duplicate is not charged)", s.Cost, s.Entries)
	}
	if s.Hits != 1 || s.Misses != 0 {
		t.Errorf("Add moved a counter: hits/misses = %d/%d", s.Hits, s.Misses)
	}
	if got := fmt.Sprint(keys(c)); got != "[k other]" {
		t.Errorf("duplicate Add did not refresh recency: %s", got)
	}
}

func TestTrimEvictsOldestFirst(t *testing.T) {
	c := New[string, int](3)
	for i, k := range []string{"a", "b", "c", "d", "e"} {
		c.Add(k, i, 1)
	}
	c.Get("a")
	if got := fmt.Sprint(c.Trim("e")); got != "[b c]" {
		t.Errorf("Trim evicted %s, want [b c]", got)
	}
	if got := fmt.Sprint(keys(c)); got != "[a e d]" {
		t.Errorf("resident %s, want [a e d]", got)
	}
	if s := c.Stats(); s.Evictions != 2 || s.Cost != 3 {
		t.Errorf("evictions/cost = %d/%d, want 2/3", s.Evictions, s.Cost)
	}
	if ev := c.Trim("e"); len(ev) != 0 {
		t.Errorf("Trim within budget evicted %v", ev)
	}
}

func TestTrimSparesSpareAndSoleEntry(t *testing.T) {
	// The spare is the tail: the entry ahead of it goes instead.
	c := New[string, int](10)
	c.Add("spare", 0, 6)
	c.Add("x", 1, 6)
	if got := fmt.Sprint(c.Trim("spare")); got != "[x]" {
		t.Errorf("Trim evicted %s, want [x]", got)
	}
	// A lone spare costlier than the budget stays.
	if ev := c.Trim("spare"); len(ev) != 0 {
		t.Errorf("Trim evicted the spare: %v", ev)
	}
	// A sole entry stays even when it is not the spare.
	c = New[string, int](10)
	c.Add("big", 0, 100)
	if ev := c.Trim("absent"); len(ev) != 0 {
		t.Errorf("Trim evicted a sole entry: %v", ev)
	}
	if _, _, ok := c.Oldest("absent"); ok {
		t.Error("Oldest offered a sole entry")
	}
	if s := c.Stats(); s.Entries != 1 || s.Cost != 100 {
		t.Errorf("entries/cost = %d/%d, want 1/100", s.Entries, s.Cost)
	}
}

func TestUnboundedNeverEvicts(t *testing.T) {
	for _, budget := range []int64{0, -1} {
		c := New[string, int](budget)
		for i := 0; i < 50; i++ {
			k := fmt.Sprint(i)
			c.Add(k, i, 1000)
			if ev := c.Trim(k); len(ev) != 0 {
				t.Fatalf("budget %d: Trim evicted %v", budget, ev)
			}
		}
		if _, _, ok := c.Oldest(""); ok {
			t.Errorf("budget %d: Oldest offered a victim", budget)
		}
		if s := c.Stats(); s.Entries != 50 || s.Evictions != 0 || s.Budget != budget {
			t.Errorf("budget %d: stats %+v", budget, s)
		}
	}
}

func TestOldestAndEvictIfOldest(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1, 1)
	c.Add("b", 2, 1)
	c.Add("c", 3, 1)
	k, v, ok := c.Oldest("c")
	if !ok || k != "a" || v != 1 {
		t.Fatalf("Oldest = %s, %d, %v; want a, 1, true", k, v, ok)
	}
	// A Get between the peek and the compare-and-evict makes the peeked
	// entry most recently used: the eviction is refused.
	c.Get("a")
	if c.EvictIfOldest("a", "c") {
		t.Fatal("EvictIfOldest evicted an entry touched after the peek")
	}
	// So does a duplicate Add.
	k, _, _ = c.Oldest("c")
	c.Add(k, 0, 1)
	if c.EvictIfOldest(k, "c") {
		t.Fatal("EvictIfOldest evicted an entry re-added after the peek")
	}
	k, _, _ = c.Oldest("c")
	if !c.EvictIfOldest(k, "c") {
		t.Fatalf("EvictIfOldest(%s) refused the untouched oldest entry", k)
	}
	if c.EvictIfOldest("c", "") {
		t.Error("EvictIfOldest evicted once the cache fit its budget")
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 2 {
		t.Errorf("evictions/entries = %d/%d, want 1/2", s.Evictions, s.Entries)
	}
}

func TestRemoveFreesCostAndMovesNoCounter(t *testing.T) {
	c := New[string, int](10)
	c.Add("a", 1, 4)
	c.Add("b", 2, 3)
	if !c.Remove("a") {
		t.Fatal("Remove(a) = false")
	}
	if c.Remove("a") {
		t.Error("second Remove(a) = true")
	}
	s := c.Stats()
	if s.Cost != 3 || s.Entries != 1 {
		t.Errorf("cost/entries = %d/%d, want 3/1", s.Cost, s.Entries)
	}
	if s.Hits != 0 || s.Misses != 0 || s.Evictions != 0 {
		t.Errorf("Remove moved a counter: %+v", s)
	}
}

func TestValuesMostRecentFirst(t *testing.T) {
	c := New[string, int](0)
	c.Add("a", 1, 1)
	c.Add("b", 2, 1)
	c.Add("c", 3, 1)
	c.Get("a")
	if got := fmt.Sprint(c.Values()); got != "[1 3 2]" {
		t.Errorf("Values = %s, want [1 3 2]", got)
	}
	if got := fmt.Sprint(keys(c)); got != "[a c b]" {
		t.Errorf("Values touched recency: %s", got)
	}
}

// TestConcurrentUse gives -race real interleavings and checks that the
// counters and the budget reconcile at quiescence.
func TestConcurrentUse(t *testing.T) {
	const workers, each, budget = 8, 500, 16
	c := New[int, int](budget)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				k := (w*7 + i) % 40
				if _, ok := c.Get(k); !ok {
					c.Add(k, k, 1)
					c.Trim(k)
				}
			}
		}(w)
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits+s.Misses != workers*each {
		t.Errorf("hits(%d)+misses(%d) != %d lookups", s.Hits, s.Misses, workers*each)
	}
	if s.Cost > budget || int64(s.Entries) != s.Cost {
		t.Errorf("cost %d, entries %d, budget %d", s.Cost, s.Entries, budget)
	}
	if len(c.Values()) != s.Entries {
		t.Errorf("Values has %d entries, stats report %d", len(c.Values()), s.Entries)
	}
}
