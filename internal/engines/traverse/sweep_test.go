package traverse

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/hpcl-repro/epg/internal/alloctest"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/simmachine"
	"github.com/hpcl-repro/epg/internal/xrand"
)

var testSweep = SweepProfile{
	Edge:           simmachine.Cost{Cycles: 3, Bytes: 12},
	EdgeCompressed: simmachine.Cost{Cycles: 3, Bytes: 8},
	Work:           simmachine.Cost{Cycles: 5},
	Vertex:         simmachine.Cost{Cycles: 6, Bytes: 24},
}

// sweepFunc is a sweep body written as a func.
type sweepFunc func(c *Chunk, lo, hi int)

func (f sweepFunc) Sweep(c *Chunk, lo, hi int) { f(c, lo, hi) }

// pull is a PageRank-shaped sweep body: every vertex sums a value over
// its row, the chunk folds the sums, counts the vertices that have a
// row at all and reports one unit of work per vertex.
func pull(rows Rows, x, next []float64) sweepFunc {
	return func(c *Chunk, lo, hi int) {
		var local float64
		var nonEmpty int64
		for v := lo; v < hi; v++ {
			sum := 0.0
			for _, u := range c.Row(rows, v) {
				sum += x[u]
			}
			next[v] = sum
			local += sum
			if sum != 0 {
				nonEmpty++
			}
		}
		c.Sum, c.Changed, c.Work = local, nonEmpty, int64(hi-lo)
	}
}

// One sweep gives one answer over every row source, policy and worker
// count: fold, per-chunk partials, change count and per-vertex output,
// bit for bit, in one region whose charge does not depend on the
// workers. Raw sources charge identically whatever holds the rows; the
// encoded source charges its decoded entries at the compressed rate
// plus exactly the bytes of the streams it read.
func TestSweepSameOverEveryRowSource(t *testing.T) {
	csr := kronCSR(10, 3)
	ccsr := graph.CompressCSR(csr, 0)
	n, grain := csr.NumVertices, 96
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sqrt(float64(i) + 0.1)
	}
	sources := []struct {
		name string
		rows Rows
	}{{"csr", csr}, {"compressed", ccsr}, {"slices", slicesOf(csr)}}

	var wantSum float64
	var wantChanged int64
	var wantParts, wantNext []float64
	for _, sched := range []simmachine.Sched{simmachine.Static, simmachine.Dynamic, simmachine.Steal, simmachine.NUMA} {
		regions := map[string][]simmachine.Region{}
		for _, src := range sources {
			var s State // one state across worker counts: resizing is part of the contract
			for _, workers := range []int{1, 2, 4} {
				ctx := fmt.Sprintf("sched %v %s workers %d", sched, src.name, workers)
				m := machine(workers)
				m.SetSchedOverride(sched)
				next := make([]float64, n)
				sum, changed := s.Sweep(m, n, grain, &testSweep, pull(src.rows, x, next))
				if wantNext == nil {
					wantSum, wantChanged, wantParts, wantNext = sum, changed, slices.Clone(s.parts), next
				}
				if math.Float64bits(sum) != math.Float64bits(wantSum) || changed != wantChanged {
					t.Fatalf("%s: fold %x changed %d, want %x and %d", ctx, math.Float64bits(sum), changed, math.Float64bits(wantSum), wantChanged)
				}
				if !slices.Equal(s.parts, wantParts) || !slices.Equal(next, wantNext) {
					t.Fatalf("%s: per-chunk partials or per-vertex sums differ", ctx)
				}
				if len(m.Trace()) != 1 {
					t.Fatalf("%s: %d regions, want one per sweep", ctx, len(m.Trace()))
				}
				if prev, ok := regions[src.name]; ok && !slices.Equal(prev, m.Trace()) {
					t.Fatalf("%s: the modeled region depends on the worker count", ctx)
				}
				regions[src.name] = slices.Clone(m.Trace())
			}
		}
		if !slices.Equal(regions["csr"], regions["slices"]) {
			t.Fatalf("sched %v: two raw row sources charge differently", sched)
		}
		// Integer-valued costs: the sums below are exact.
		p, entries, verts := testSweep, float64(csr.NumEdges()), float64(n)
		cpb := machine(1).Model().DecodeCyclesPerByte
		raw, enc := regions["csr"][0].Cost, regions["compressed"][0].Cost
		if want := p.Edge.Bytes*entries + p.Vertex.Bytes*verts; raw.Bytes != want {
			t.Fatalf("sched %v: raw rows charged %v bytes, want %v", sched, raw.Bytes, want)
		}
		if want := p.EdgeCompressed.Bytes*entries + float64(ccsr.TotalBytes()) + p.Vertex.Bytes*verts; enc.Bytes != want {
			t.Fatalf("sched %v: compressed rows charged %v bytes, want %v: not exactly the encoded bytes", sched, enc.Bytes, want)
		}
		if want := (p.EdgeCompressed.Cycles)*entries + cpb*float64(ccsr.TotalBytes()) + (p.Work.Cycles+p.Vertex.Cycles)*verts; enc.Cycles != want {
			t.Fatalf("sched %v: compressed rows charged %v cycles, want %v", sched, enc.Cycles, want)
		}
	}
}

// A warm sweep allocates nothing that scales with n: with the chunk
// count held fixed, sweeping a graph sixteen times larger costs the same
// bytes (the region's own per-chunk and per-lane bookkeeping).
func TestWarmSweepAllocatesNothingScalingWithN(t *testing.T) {
	warmBytes := func(scale int) uint64 {
		rows := graph.CompressCSR(kronCSR(scale, 5), 0) // decoded rows: the scratch is in play
		n := rows.NumVertices
		x, next := make([]float64, n), make([]float64, n)
		m := machine(1)
		m.SetTracing(false)
		var s State
		body := pull(rows, x, next)
		s.Sweep(m, n, n/4, &testSweep, body) // sizes the scratch, the partials and the accumulators
		return alloctest.FewestBytes(20, func() { s.Sweep(m, n, n/4, &testSweep, body) })
	}
	small, large := warmBytes(8), warmBytes(12)
	t.Logf("warm sweep: %d B at 2^8 vertices, %d B at 2^12", small, large)
	// On one worker a warm sweep allocates the same bytes on every call
	// (none: its body is a record), so the fewest of twenty calls is
	// exact at both sizes and must match to the byte.
	if large != small {
		t.Fatalf("a warm sweep allocates %d B at 2^12 vertices against %d B at 2^8: something scales with n", large, small)
	}
}

// Chunk.Worker indexes per-worker scratch (State.Tallies), so it stays
// in [0, m.Workers()) at every worker count, including counts above
// GOMAXPROCS, and one State swept at several counts.
func TestChunkWorkerWithinWorkers(t *testing.T) {
	var s State
	for _, workers := range []int{1, 2, 3, 4, 8} {
		m := machine(workers)
		seen := make([]int32, 64) // chunk -> worker+1, each chunk written once
		s.Sweep(m, len(seen), 1, &testSweep, sweepFunc(func(c *Chunk, lo, hi int) {
			seen[lo] = int32(c.Worker()) + 1
		}))
		for chunk, w := range seen {
			if w < 1 || int(w) > m.Workers() {
				t.Fatalf("workers=%d: chunk %d ran on worker %d, want [0,%d)", workers, chunk, w-1, m.Workers())
			}
		}
	}
}

// Tally.Pick is the CDLP rule — most frequent label, ties to the
// smallest, own when nothing was counted — whatever the order labels
// were added in, and it leaves the tally empty for the next vertex.
func TestTallyPicksLikeAHistogramMap(t *testing.T) {
	const n = 64
	var s State
	tally := &s.Tallies(machine(1), n)[0]
	r := xrand.New(11)
	for trial := 0; trial < 2000; trial++ {
		counts := map[graph.VID]int{}
		for k := int(r.Uint64() % 40); k > 0; k-- {
			l := graph.VID(r.Uint64() % (1 + r.Uint64()%n)) // skewed: ties and repeats
			counts[l]++
			tally.Add(l)
			if !tally.Has(l) {
				t.Fatalf("trial %d: label %d added but not held", trial, l)
			}
		}
		own := graph.VID(r.Uint64() % n)
		want, best := own, 0
		for l, c := range counts {
			if c > best || (c == best && l < want) {
				want, best = l, c
			}
		}
		if got := tally.Pick(own); got != want {
			t.Fatalf("trial %d: picked %d from %v (own %d), want %d", trial, got, counts, own, want)
		}
		for l := range counts {
			if tally.Has(l) {
				t.Fatalf("trial %d: label %d survived Pick", trial, l)
			}
		}
	}
}

// Hook is one Jacobi round, whatever the worker count: on a path
// 0–1–…–(n−1) the first round leaves comp alone and moves every label
// down by exactly one, and the fixed point takes exactly n−1 lowering
// rounds (round k lowers n−k labels) and one that lowers none. An
// in-place hook finishes the path in one sweep at one worker. The path
// stored one way, with in set, is the same graph.
func TestHookIsOneSynchronousRound(t *testing.T) {
	const n = 4096
	both, out, in := make([][]graph.VID, n), make([][]graph.VID, n), make([][]graph.VID, n)
	for v := 0; v+1 < n; v++ {
		u := graph.VID(v + 1)
		both[v], both[u] = append(both[v], u), append(both[u], graph.VID(v))
		out[v], in[u] = []graph.VID{u}, []graph.VID{graph.VID(v)}
	}
	cases := []struct {
		name    string
		out, in Rows
	}{
		{"undirected", sliceRows{adj: both}, nil},
		{"directed", sliceRows{adj: out}, sliceRows{adj: in}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 7} {
			var s State
			m := machine(workers)
			comp, next := make([]graph.VID, n), make([]graph.VID, n)
			for v := range comp {
				comp[v] = graph.VID(v)
			}
			if got := s.Hook(m, 64, &testSweep, tc.out, tc.in, comp, next); got != n-1 {
				t.Fatalf("%s workers=%d: the first round lowered %d labels, want %d", tc.name, workers, got, n-1)
			}
			for v := range comp {
				if comp[v] != graph.VID(v) || next[v] != graph.VID(max(v-1, 0)) {
					t.Fatalf("%s workers=%d: after one round vertex %d has comp %d, next %d; want %d, %d", tc.name, workers, v, comp[v], next[v], v, max(v-1, 0))
				}
			}
			comp, next = next, comp
			for round := 2; round <= n; round++ {
				if got := s.Hook(m, 64, &testSweep, tc.out, tc.in, comp, next); got != int64(n-round) {
					t.Fatalf("%s workers=%d: round %d lowered %d labels, want %d", tc.name, workers, round, got, n-round)
				}
				comp, next = next, comp
			}
			for v, l := range comp {
				if l != 0 {
					t.Fatalf("%s workers=%d: vertex %d ended at label %d, want 0", tc.name, workers, v, l)
				}
			}
		}
	}
}
