// Package hotalloc exercises the hotalloc analyzer: allocations inside
// loops of lint:hot functions are flagged, the closure makes loop
// callees loop-hot (whole body flagged), and preallocated or explicitly
// reused buffers are exempt. Cold duplicates the hot path without the
// annotation and must produce nothing.
package hotalloc

import "fmt"

type node struct{ v int }

// Mine is a seeded hot entry point with one of each allocation kind in
// its loop.
// lint:hot
func Mine(rows [][]int, names []string) []int {
	var out []int
	joined := ""
	for i, row := range rows {
		buf := make([]int, len(row))
		copy(buf, row)
		out = append(out, buf...)
		n := &node{v: i}
		pair := []int{n.v, len(row)}
		out = append(out, pair...)
		joined += names[i%len(names)]
		raw := []byte(joined)
		_ = fmt.Sprintf("%d", len(raw))
		sum := 0
		cmp := func(a int) bool { return a < n.v }
		for _, v := range row {
			if cmp(v) {
				sum += v
			}
		}
		sum = guarded(sum)
		pool = grow(pool, i%4)
		out = append(out, helper(sum))
	}
	return out
}

var pool [][]int

// helper is called from Mine's loop, so the closure makes it loop-hot:
// its whole body counts as inside a hot loop, even outside its own
// loops.
func helper(n int) int {
	m := map[int]int{n: n}
	return len(m)
}

// guarded is loop-hot via Mine's loop, but its only allocation feeds
// the panic builtin: a death path is not a steady-state cost and stays
// silent.
func guarded(n int) int {
	if n < -1000 {
		panic(fmt.Sprintf("hotalloc: implausible sum %d", n))
	}
	return n
}

// grow is a pool's growth path: every allocation in it is one-time
// capacity acquisition, exempted wholesale by the declaration form of
// the directive.
//
// lint:ignore hotalloc fixture: one-time pool growth, amortized across reuse
func grow(p [][]int, n int) [][]int {
	for len(p) <= n {
		p = append(p, make([]int, 8))
	}
	return p
}

// MineReused shows the exemptions: capacity-preallocated buffers,
// buf = buf[:0] resets, and the inline append(buf[:0], ...) idiom stay
// silent.
// lint:hot
func MineReused(rows [][]int) []int {
	out := make([]int, 0, 64)
	buf := make([]int, 0, 8)
	var scratch []int
	for _, row := range rows {
		buf = buf[:0]
		for _, v := range row {
			buf = append(buf, v)
		}
		scratch = append(scratch[:0], buf...)
		out = append(out, scratch...)
	}
	return out
}

// MineLookup compares and looks up byte-slice keys through string(b),
// which the compiler does without a copy; only the store's key, which
// the map keeps, allocates. A rune slice has no such form: comparing
// string(runes) still encodes a new string.
// lint:hot
func MineLookup(cells [][]byte, runes []rune, seen map[string]int, known string) int {
	n := 0
	for _, c := range cells {
		if string(c) == known || known < string(c) {
			n++
		}
		if string(runes) == known {
			n--
		}
		if k, ok := seen[string(c)]; ok {
			n += k
		}
		seen[string(c)] = n
	}
	return n
}

// Cold is Mine without the annotation and outside the hot closure: the
// same allocations produce no findings.
func Cold(rows [][]int) []int {
	var out []int
	for _, row := range rows {
		buf := make([]int, len(row))
		copy(buf, row)
		out = append(out, buf...)
	}
	return out
}

// ring is a generic buffer. A method of an instantiated generic type is
// a distinct types object; the closure maps it back to its declaration,
// so push is loop-hot through MineGeneric's loop.
type ring[T any] struct{ items []T }

func (r *ring[T]) push(x T) {
	r.items = append(r.items, x)
}

// MineGeneric reaches a generic method from inside its loop.
// lint:hot
func MineGeneric(rows [][]int) int {
	var r ring[int]
	for _, row := range rows {
		r.push(len(row))
	}
	return len(r.items)
}
