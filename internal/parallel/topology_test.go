package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestTopologySocketPlacement(t *testing.T) {
	// 8 workers, 2 sockets: consecutive blocks of 4.
	topo := Topology{Sockets: 2}
	for w := 0; w < 8; w++ {
		want := w / 4
		if got := topo.socketOf(w, 8); got != want {
			t.Errorf("socketOf(%d, 8) = %d, want %d", w, got, want)
		}
	}
	// More sockets than workers clamps: every worker its own socket.
	topo = Topology{Sockets: 16}
	for w := 0; w < 3; w++ {
		if got := topo.socketOf(w, 3); got != w {
			t.Errorf("clamped socketOf(%d, 3) = %d, want %d", w, got, w)
		}
	}
	// Zero topology resolves to the GOMAXPROCS default, always valid.
	d := DefaultTopology()
	if d.Sockets < 1 || d.Sockets > 4 {
		t.Errorf("DefaultTopology sockets = %d, want 1..4", d.Sockets)
	}
	if got := (Topology{}).socketOf(0, 4); got != 0 {
		t.Errorf("zero topology socketOf(0, 4) = %d", got)
	}
}

func TestForTopoCoversAllIndices(t *testing.T) {
	p := NewPool(8)
	// Sockets × nodes spans the executor's one-, two- and three-level
	// victim orders, clamped counts included.
	for _, sockets := range []int{0, 1, 2, 3, 8} {
		for _, nodes := range []int{0, 1, 2, 4, 16} {
			for _, workers := range []int{1, 3, 8} {
				seen := make([]int32, 1000)
				ForTopo(p, workers, 1000, 16, NUMA, Topology{Sockets: sockets, Nodes: nodes}, func(lo, hi, chunk, worker int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&seen[i], 1)
					}
				})
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("sockets=%d nodes=%d workers=%d: index %d ran %d times", sockets, nodes, workers, i, c)
					}
				}
			}
		}
	}
}

func TestForTopoChunkIndicesStable(t *testing.T) {
	p := NewPool(8)
	n, grain := 997, 13
	for _, sockets := range []int{1, 2, 4} {
		for _, workers := range []int{1, 2, 7} {
			ForTopo(p, workers, n, grain, NUMA, Topology{Sockets: sockets}, func(lo, hi, chunk, worker int) {
				if lo != chunk*grain {
					t.Errorf("chunk %d starts at %d, want %d", chunk, lo, chunk*grain)
				}
				want := lo + grain
				if want > n {
					want = n
				}
				if hi != want {
					t.Errorf("chunk %d ends at %d, want %d", chunk, hi, want)
				}
			})
		}
	}
}

// TestForTopoOversubscribedDoesNotLeak mirrors the Steal leak wall:
// idle two-level thieves must exit on the empty sweep, not spin, even
// when workers exceed both the socket blocks and the pool's idle set.
func TestForTopoOversubscribedDoesNotLeak(t *testing.T) {
	p := NewPool(4)
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		var n atomic.Int64
		ForTopo(p, 16, 64, 1, NUMA, Topology{Sockets: 4, Nodes: i % 3}, func(lo, hi, chunk, worker int) {
			n.Add(1)
		})
		if n.Load() != 64 {
			t.Fatalf("round %d ran %d chunks", i, n.Load())
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+8 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d under two-level stealing",
		before, runtime.NumGoroutine())
}
