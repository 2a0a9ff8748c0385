package traverse

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/kronecker"
	"github.com/hpcl-repro/epg/internal/parallel"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// sliceRows is the third row source: one slice per vertex, as a
// property graph keeps them.
type sliceRows struct {
	adj [][]graph.VID
	w   [][]float32
}

func (g sliceRows) Row(v graph.VID, _ *graph.RowBuf) ([]graph.VID, int64) { return g.adj[v], 0 }
func (g sliceRows) Encoded() bool                                         { return false }
func (g sliceRows) WeightedRowBuf(v graph.VID, _ *graph.RowBuf) ([]graph.VID, []float32) {
	return g.adj[v], g.w[v]
}

func kronCSR(scale int, seed uint64) *graph.CSR {
	el := kronecker.Generate(kronecker.Params{Scale: scale, Seed: seed})
	return graph.BuildCSR(el, graph.BuildOptions{Symmetrize: true, DropSelfLoops: true, Dedup: true, Sort: true})
}

func slicesOf(c *graph.CSR) sliceRows {
	g := sliceRows{adj: make([][]graph.VID, c.NumVertices), w: make([][]float32, c.NumVertices)}
	for v := range g.adj {
		g.adj[v], g.w[v] = c.WeightedRow(graph.VID(v))
	}
	return g
}

func machine(workers int) *simmachine.Machine {
	m := simmachine.New(simmachine.Haswell72(), 8)
	m.SetWorkers(workers)
	return m
}

var (
	testProfile = Profile{
		Edge:           simmachine.Cost{Cycles: 6, Bytes: 10},
		EdgeCompressed: simmachine.Cost{Cycles: 6, Bytes: 6},
		Claim:          simmachine.Cost{Atomics: 1},
		VertexCycles:   6,
		Grain:          64,
	}
	testRelax = RelaxProfile{
		Edge:   simmachine.Cost{Cycles: 9, Bytes: 14},
		Cand:   simmachine.Cost{Cycles: 6, Bytes: 8},
		Vertex: simmachine.Cost{Cycles: 6, Bytes: 12},
		Win:    simmachine.Cost{Atomics: 1},
		Merge:  simmachine.Cost{Cycles: 6, Bytes: 8},
	}
)

// levelTrace is everything one search exposes: the frontier (membership
// and order) and edge count of every level, and the final tree.
type levelTrace struct {
	frontiers [][]graph.VID
	examined  []int64
	res       *engines.BFSResult
}

func search(s *State, m *simmachine.Machine, rows Rows, p *Profile, n int, root graph.VID) levelTrace {
	tr := levelTrace{res: StartBFS(nil, root, n)}
	s.Frontier = append(s.Frontier[:0], root)
	for level := int64(0); len(s.Frontier) > 0; level++ {
		tr.examined = append(tr.examined, s.TopDown(m, rows, p, tr.res, level))
		tr.frontiers = append(tr.frontiers, slices.Clone(s.Frontier))
	}
	return tr
}

// The step is the same search over every row source, policy and worker
// count: identical next frontiers level by level — order included —
// parents, depths and edge counts. Raw sources also charge identically
// whatever holds the rows; the encoded source charges differently (its
// bytes are what it decoded) and that alone.
func TestTopDownSameOverEveryRowSource(t *testing.T) {
	csr := kronCSR(10, 3)
	n := csr.NumVertices
	sources := []struct {
		name string
		rows Rows
	}{
		{"csr", csr},
		{"compressed", graph.CompressCSR(csr, 0)},
		{"slices", slicesOf(csr)},
	}
	for _, root := range core.SelectRoots(csr, 3, 11) {
		var want levelTrace
		for _, sched := range []simmachine.Sched{simmachine.Static, simmachine.Dynamic, simmachine.Steal, simmachine.NUMA} {
			p := testProfile
			p.Sched = sched
			regions := map[string][]simmachine.Region{}
			for _, src := range sources {
				var s State // one state across worker counts: resizing is part of the contract
				for _, workers := range []int{1, 2, 4} {
					ctx := fmt.Sprintf("root %d sched %v %s workers %d", root, sched, src.name, workers)
					m := machine(workers)
					got := search(&s, m, src.rows, &p, n, root)
					if want.res == nil {
						want = got
					}
					if !slices.EqualFunc(got.frontiers, want.frontiers, slices.Equal[[]graph.VID]) {
						t.Fatalf("%s: next frontiers differ in membership or order", ctx)
					}
					if !slices.Equal(got.examined, want.examined) {
						t.Fatalf("%s: edges examined per level %v, want %v", ctx, got.examined, want.examined)
					}
					if !slices.Equal(got.res.Parent, want.res.Parent) || !slices.Equal(got.res.Depth, want.res.Depth) {
						t.Fatalf("%s: parents or depths differ", ctx)
					}
					if len(m.Trace()) != len(got.frontiers) {
						t.Fatalf("%s: %d regions for %d levels, want one per level", ctx, len(m.Trace()), len(got.frontiers))
					}
					if prev, ok := regions[src.name]; ok && !slices.Equal(prev, m.Trace()) {
						t.Fatalf("%s: modeled regions depend on the worker count", ctx)
					}
					regions[src.name] = slices.Clone(m.Trace())
				}
			}
			if !slices.Equal(regions["csr"], regions["slices"]) {
				t.Fatalf("root %d sched %v: two raw row sources charge differently", root, sched)
			}
			if slices.Equal(regions["csr"], regions["compressed"]) {
				t.Fatalf("root %d sched %v: decoding charged nothing", root, sched)
			}
		}
	}
}

// A fired hook ends the level loop with the hook's error, wrapped with
// the kernel name, and the machine has charged exactly the levels that
// completed — the regions of an unabandoned search, cut short.
func TestLevelsCancelChargesCompletedLevels(t *testing.T) {
	csr := kronCSR(10, 5)
	root := core.SelectRoots(csr, 1, 2)[0]
	p := testProfile
	p.Sched = simmachine.Dynamic

	full := machine(2)
	var s State
	if _, err := s.BFS(full, csr, &p, "test: BFS", csr.NumVertices, root, nil); err != nil {
		t.Fatal(err)
	}
	levels := len(full.Trace())
	if levels < 3 {
		t.Fatalf("search too shallow to cut: %d levels", levels)
	}

	stop := errors.New("budget exhausted")
	for completed := 0; completed < levels; completed++ {
		polls := 0
		s.Cancel = func() error {
			if polls++; polls > completed {
				return stop
			}
			return nil
		}
		m := machine(2)
		res, err := s.BFS(m, csr, &p, "test: BFS", csr.NumVertices, root, nil)
		if res != nil || !errors.Is(err, stop) {
			t.Fatalf("cut after %d levels: result %v, error %v", completed, res, err)
		}
		if !strings.HasPrefix(err.Error(), "test: BFS canceled: ") {
			t.Fatalf("error %q does not name the kernel", err)
		}
		if !slices.Equal(m.Trace(), full.Trace()[:completed]) {
			t.Fatalf("cut after %d levels: charged %d regions, or not the full search's first %d",
				completed, len(m.Trace()), completed)
		}
	}

	// The same for a kernel that polls between dense sweeps: a cut run
	// has charged exactly the sweeps it completed.
	n := csr.NumVertices
	x, next := make([]float64, n), make([]float64, n)
	iterate := func(m *simmachine.Machine) error {
		for iter := 0; iter < 5; iter++ {
			if err := s.Poll("test: PR"); err != nil {
				return err
			}
			s.Sweep(m, n, 128, &testSweep, pull(csr, x, next))
		}
		return nil
	}
	s.Cancel = nil
	fullSweeps := machine(2)
	if err := iterate(fullSweeps); err != nil || len(fullSweeps.Trace()) != 5 {
		t.Fatalf("uncut sweeps: error %v, %d regions", err, len(fullSweeps.Trace()))
	}
	for completed := 0; completed < 5; completed++ {
		polls := 0
		s.Cancel = func() error {
			if polls++; polls > completed {
				return stop
			}
			return nil
		}
		m := machine(2)
		if err := iterate(m); !errors.Is(err, stop) || !strings.HasPrefix(err.Error(), "test: PR canceled: ") {
			t.Fatalf("cut after %d sweeps: error %v", completed, err)
		}
		if !slices.Equal(m.Trace(), fullSweeps.Trace()[:completed]) {
			t.Fatalf("cut after %d sweeps: charged %d regions, or not the first %d of the uncut run", completed, len(m.Trace()), completed)
		}
	}
}

// winFunc is a Relax win hook written as a func.
type winFunc func(u graph.VID, nd float64)

func (f winFunc) Win(_ *State, u graph.VID, nd float64) { f(u, nd) }

// bellmanFord is round-barrier relaxation over every edge, the
// simplest policy around Relax.
func bellmanFord(s *State, m *simmachine.Machine, rows WeightedRows, n int, root graph.VID, each func()) *engines.SSSPResult {
	res := StartSSSP(nil, root, n)
	active, next := []graph.VID{root}, []graph.VID(nil)
	for len(active) > 0 {
		next = next[:0]
		res.Relaxations += s.Relax(m, rows, &testRelax, active, res, Pass{Split: math.Inf(1)}, winFunc(func(u graph.VID, _ float64) {
			if s.First(u) {
				next = append(next, u)
			}
		}))
		if each != nil {
			each()
		}
		active, next = next, active
	}
	return res
}

// Relax gives one answer over CSR rows and slice rows, at every worker
// count, down to the modeled regions.
func TestRelaxSameOverRowSourcesAndWorkers(t *testing.T) {
	csr := kronCSR(9, 7)
	root := core.SelectRoots(csr, 1, 4)[0]
	var want *engines.SSSPResult
	var wantRegions []simmachine.Region
	for _, rows := range []WeightedRows{csr, slicesOf(csr)} {
		var s State
		for _, workers := range []int{1, 2, 4} {
			m := machine(workers)
			got := bellmanFord(&s, m, rows, csr.NumVertices, root, nil)
			if want == nil {
				want, wantRegions = got, slices.Clone(m.Trace())
			}
			if !slices.Equal(got.Dist, want.Dist) || !slices.Equal(got.Parent, want.Parent) || got.Relaxations != want.Relaxations {
				t.Fatalf("%T workers %d: distances, parents or relaxations differ", rows, workers)
			}
			if !slices.Equal(m.Trace(), wantRegions) {
				t.Fatalf("%T workers %d: modeled regions differ", rows, workers)
			}
		}
	}
}

// The bounded-retention rule: after 40 searches of both kinds the
// slabs hold no more than the bound Slab documents, twice the largest
// single region's output plus twice the largest chunk's per worker.
// Keeping every chunk's high-water buffer instead — the obvious way to
// stop allocating — retains several times that and fails here.
func TestRetentionBoundedByLargestRegion(t *testing.T) {
	const workers = 2
	csr := kronCSR(12, 9)
	m := machine(workers)
	m.SetTracing(false)
	p := testProfile
	p.Sched = simmachine.Dynamic
	var s State
	var peakClaims, peakCands, chunkClaims, chunkCands int
	for i, root := range core.SelectRoots(csr, 40, 0x7007) {
		if i%2 == 0 {
			res := StartBFS(nil, root, csr.NumVertices)
			s.Frontier = append(s.Frontier[:0], root)
			for level := int64(0); len(s.Frontier) > 0; level++ {
				s.TopDown(m, csr, &p, res, level)
				peakClaims = max(peakClaims, s.claims.Len())
				chunkClaims = max(chunkClaims, largestChunk(&s.claims))
			}
		} else {
			bellmanFord(&s, m, csr, csr.NumVertices, root, func() {
				peakCands = max(peakCands, s.cands.Len())
				chunkCands = max(chunkCands, largestChunk(&s.cands))
			})
		}
	}
	claimB, candB := int(unsafe.Sizeof(parallel.Claim{})), int(unsafe.Sizeof(cand{}))
	need := peakClaims*claimB + peakCands*candB
	chunk := chunkClaims*claimB + chunkCands*candB
	got := s.claimBuf.Cap()*claimB + s.candBuf.Cap()*candB
	bound := 2*need + 2*workers*chunk
	t.Logf("slabs retain %d B; largest regions' outputs sum to %d B (%.2fx), largest chunks' to %d B; bound %d B",
		got, need, float64(got)/float64(need), chunk, bound)
	if got > bound {
		t.Fatalf("slabs retain %d B, over 2x the %d B the largest regions produced plus 2x%d workers' %d B largest chunks",
			got, need, workers, chunk)
	}
}

// largestChunk is the most items one chunk of q's last region output.
func largestChunk[T any](q *parallel.ChunkQueue[T]) int {
	most := 0
	for _, b := range q.Chunks() {
		most = max(most, len(b))
	}
	return most
}

// The dedup stamps survive the pass counter wrapping: a search started
// just below the wrap equals one on a fresh state, and the counter
// restarts from a re-zeroed array.
func TestFirstStampWrapAround(t *testing.T) {
	csr := kronCSR(9, 13)
	roots := core.SelectRoots(csr, 3, 6)
	var s State
	m := machine(2)
	bellmanFord(&s, m, csr, csr.NumVertices, roots[0], nil) // size and stamp queued
	s.pass = math.MaxInt32 - 2
	// Poison the stamps a wrapped counter would hand out again.
	for v := range s.queued {
		s.queued[v] = int32(v%5) + 1
	}
	for _, root := range roots[1:] {
		got := bellmanFord(&s, m, csr, csr.NumVertices, root, nil)
		want := bellmanFord(new(State), machine(2), csr, csr.NumVertices, root, nil)
		if !slices.Equal(got.Dist, want.Dist) || !slices.Equal(got.Parent, want.Parent) || got.Relaxations != want.Relaxations {
			t.Fatalf("root %d: relaxation across the stamp wrap differs from fresh", root)
		}
	}
	if s.pass <= 0 || s.pass > 1<<20 {
		t.Fatalf("pass counter did not restart after the wrap: %d", s.pass)
	}
}
