//go:build epg_permute

package simmachine

import (
	"slices"
	"testing"
)

// Every chunk order is a permutation of [0, n), a region hands chunk
// order[i] to worker i mod the worker count, and a machine replays the
// same orders after a Reset: a failing order reproduces.
func TestChunkOrdersArePermutationsAndRepeatAfterReset(t *testing.T) {
	const workers = 3
	var seeded [][]int
	for k := range 8 {
		m := New(testModel(), 16)
		m.SetWorkers(workers)
		m.SetChunkOrder(k)
		orders := func() [][]int {
			var out [][]int
			for _, n := range []int{0, 1, 2, 1023, 1024} {
				order := slices.Clone(m.order.next(m, n))
				if len(order) != n {
					t.Fatalf("k=%d: an order of %d chunks has %d", k, n, len(order))
				}
				seen := make([]bool, n)
				for _, c := range order {
					if c < 0 || c >= n || seen[c] {
						t.Fatalf("k=%d n=%d: %v is not a permutation", k, n, order)
					}
					seen[c] = true
				}
				out = append(out, order)
			}
			var ran []int
			m.ParallelForChunks(1024, 1, Static, func(lo, hi, chunk, worker int, w *W) {
				if worker != len(ran)%workers {
					t.Fatalf("k=%d: position %d ran on worker %d", k, len(ran), worker)
				}
				ran = append(ran, chunk)
			})
			return append(out, ran)
		}
		first := orders()
		m.Reset()
		if again := orders(); !slices.EqualFunc(first, again, slices.Equal) {
			t.Errorf("k=%d: the orders after a Reset differ from the first", k)
		}
		last := first[len(first)-1]
		switch k {
		case 0:
			if last[0] != 1023 || !slices.IsSortedFunc(last, func(a, b int) int { return b - a }) {
				t.Errorf("the default order is not descending")
			}
		case 1:
			if !slices.IsSorted(last) {
				t.Errorf("order 1 is not ascending")
			}
		default:
			if slices.IsSorted(last) || slices.ContainsFunc(seeded, func(o []int) bool { return slices.Equal(o, last) }) {
				t.Errorf("seeded order %d repeats another order", k)
			}
			seeded = append(seeded, last)
		}
	}
}

// setChunkOrder is Machine.SetChunkOrder (nopermute_test.go stubs it).
func setChunkOrder(m *Machine, k int) { m.SetChunkOrder(k) }
