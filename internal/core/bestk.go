package core

// bestK keeps the k best values offered to it under better, a strict
// total order, in a binary min-heap whose root is the weakest kept
// value. Offering n values costs O(n log k); under a total order the
// kept set does not depend on the order values arrive in, so a bounded
// selection returns exactly the first k values of a full sort.
type bestK[T any] struct {
	items  []T
	k      int
	better func(a, b *T) bool
	// cand holds an offered value while it is compared: better is called
	// through a func value, so the address of a parameter would escape
	// and cost an allocation per offer.
	cand T
}

// newBestK returns an empty selection of the k best values. The heap is
// allocated once with capacity capHint (at most k), so a caller that knows
// how many candidates it has never sees the heap grow.
func newBestK[T any](k, capHint int, better func(a, b *T) bool) bestK[T] {
	return bestK[T]{items: make([]T, 0, min(k, capHint)), k: k, better: better}
}

// weakest returns the weakest kept value once k are kept, and nil while
// the selection still admits every offer.
func (s *bestK[T]) weakest() *T {
	if len(s.items) < s.k {
		return nil
	}
	return &s.items[0]
}

// offer adds x when fewer than k values are kept or x beats the weakest.
func (s *bestK[T]) offer(x T) {
	if len(s.items) < s.k {
		// lint:ignore hotalloc grows only while fewer than k values are kept; Result callers size the heap to their candidate count, so it never grows there
		s.items = append(s.items, x)
		siftUp(s.items, len(s.items)-1, s.better)
		return
	}
	s.cand = x
	if !s.better(&s.cand, &s.items[0]) {
		return
	}
	s.items[0] = s.cand
	siftDown(s.items, 0, s.better)
}

// sorted returns the kept values best first. It sorts the heap in place,
// so the selection must not be offered more values afterwards.
func (s *bestK[T]) sorted() []T {
	h := s.items
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		siftDown(h[:n], 0, s.better)
	}
	return h
}

// snapshot returns a sorted copy of the kept values (nil when none are
// kept), leaving the heap intact for further offers.
func (s *bestK[T]) snapshot() []T {
	c := bestK[T]{items: append([]T(nil), s.items...), k: s.k, better: s.better}
	return c.sorted()
}

// siftUp restores the heap property after h[i] was appended.
func siftUp[T any](h []T, i int, better func(a, b *T) bool) {
	for i > 0 {
		parent := (i - 1) / 2
		if !better(&h[parent], &h[i]) {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// siftDown restores the heap property after h[i] was replaced.
func siftDown[T any](h []T, i int, better func(a, b *T) bool) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && better(&h[c], &h[c+1]) {
			c++ // the weaker child
		}
		if !better(&h[i], &h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
