// The destination wall: every kernel writes its result into a dst the
// caller owns (engines.Instance), so a caller that drops each result can
// pass the same one every time. Whatever dst held before — another
// kernel's garbage, arrays sized for a larger or a smaller graph — the
// kernel must overwrite every entry and count, exactly as into a fresh
// result, and a warm call into a warm dst must allocate nothing.
package all

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"github.com/hpcl-repro/epg/internal/alloctest"
	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/kronecker"
)

// Garbage a dirty destination holds in every entry and count.
const (
	garbageInt = -7
	garbageVID = graph.VID(0xdeadbeef)
)

// dirtyResults returns a Results whose every array holds n entries of
// garbage (NaN, −7, 0xdeadbeef) and whose every count and root is
// garbage too.
func dirtyResults(n int) *engines.Results {
	ints := func() []int64 { return slices.Repeat([]int64{garbageInt}, n) }
	nans := func() []float64 { return slices.Repeat([]float64{math.NaN()}, n) }
	vids := func() []graph.VID { return slices.Repeat([]graph.VID{garbageVID}, n) }
	return &engines.Results{
		BFS:      engines.BFSResult{Root: garbageVID, Parent: ints(), Depth: ints(), EdgesExamined: garbageInt},
		SSSP:     engines.SSSPResult{Root: garbageVID, Dist: nans(), Parent: ints(), Relaxations: garbageInt},
		PageRank: engines.PRResult{Rank: nans(), Iterations: garbageInt},
		CDLP:     engines.CDLPResult{Label: vids(), Iterations: garbageInt},
		LCC:      engines.LCCResult{Coeff: nans()},
		WCC:      engines.WCCResult{Component: vids()},
	}
}

// arrays returns the first element's address of each array the result
// of alg's kind in r holds, and the result itself.
func arrays(r *engines.Results, alg engines.Algorithm) (result any, firsts []unsafe.Pointer) {
	p := func(s ...unsafe.Pointer) []unsafe.Pointer { return s }
	switch alg {
	case engines.BFS:
		return &r.BFS, p(unsafe.Pointer(unsafe.SliceData(r.BFS.Parent)), unsafe.Pointer(unsafe.SliceData(r.BFS.Depth)))
	case engines.SSSP:
		return &r.SSSP, p(unsafe.Pointer(unsafe.SliceData(r.SSSP.Dist)), unsafe.Pointer(unsafe.SliceData(r.SSSP.Parent)))
	case engines.PageRank:
		return &r.PageRank, p(unsafe.Pointer(unsafe.SliceData(r.PageRank.Rank)))
	case engines.CDLP:
		return &r.CDLP, p(unsafe.Pointer(unsafe.SliceData(r.CDLP.Label)))
	case engines.LCC:
		return &r.LCC, p(unsafe.Pointer(unsafe.SliceData(r.LCC.Coeff)))
	default:
		return &r.WCC, p(unsafe.Pointer(unsafe.SliceData(r.WCC.Component)))
	}
}

// Every engine's every kernel, compress off and on, SyncSSSP on and off,
// on a directed and an undirected list, runs into a dirty dst sized for
// a larger graph (its arrays must be reused) and then for a smaller one
// (they must be replaced): values, counts and the regions charged must
// equal a run into a nil dst bit for bit, and the result handed back
// must be dst's own. Then a warm call into that warm dst allocates
// nothing: the kernels' scratch is the instance's, every region body is
// a method of a record the instance keeps, and the result is the
// caller's. One worker keeps the chaotic SSSPs' parents and counts
// repeatable.
func TestWarmDestinationOverwritesEveryEntry(t *testing.T) {
	und := kronecker.Generate(kronecker.Params{Scale: 8, Seed: 31}) // GAP PageRank ends on its spare: 17 and 13 iterations
	dir := *und
	dir.Directed = true
	for _, el := range []*graph.EdgeList{und, &dir} {
		g, err := graph.Homogenize(el)
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumVertices
		root := core.SelectRoots(g.Out, 1, 0x7007)[0]
		for _, d := range Registry() {
			for _, compress := range []bool{false, true} {
				for _, sync := range []bool{true, false} {
					if (compress && !d.Knobs.Compress) || (!sync && !d.Knobs.SyncSSSP) {
						continue
					}
					inst, m := loadShared(t, d.Name, g, 1, engines.Options{SyncSSSP: sync, Compress: compress})
					for _, alg := range d.Kernels {
						label := fmt.Sprintf("%s %s directed=%v compress=%v sync=%v", d.Name, alg, el.Directed, compress, sync)
						mark, _ := m.Mark()
						want, err := engines.RunInto(inst, alg, root, nil)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						wantRegions := slices.Clone(m.Trace()[mark:])
						for _, size := range []int{2*n + 5, n / 2} {
							dst := dirtyResults(size)
							_, before := arrays(dst, alg)
							mark, _ := m.Mark()
							got, err := engines.RunInto(inst, alg, root, dst)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							at := fmt.Sprintf("%s into a dst of %d entries", label, size)
							own, after := arrays(dst, alg)
							if got != own {
								t.Fatalf("%s: the kernel handed back a result other than dst's", at)
							}
							for i := range after {
								if reused := after[i] == before[i]; reused != (size >= n) {
									t.Errorf("%s: array %d reused=%v", at, i, reused)
								}
							}
							sameOutputs(t, at, want, got)
							if r, ok := got.(*engines.BFSResult); ok && r.Root != root {
								t.Errorf("%s: root %d, want %d", at, r.Root, root)
							}
							if r, ok := got.(*engines.SSSPResult); ok && r.Root != root {
								t.Errorf("%s: root %d, want %d", at, r.Root, root)
							}
							if !slices.Equal(m.Trace()[mark:], wantRegions) {
								t.Errorf("%s: the regions charged differ from a run into a nil dst", at)
							}
							if t.Failed() {
								return
							}
						}
						dst := dirtyResults(n)
						m.SetTracing(false) // a trace grows by design
						per := alloctest.BytesPerRun(4, func() {
							if _, err := engines.RunInto(inst, alg, root, dst); err != nil {
								t.Fatal(err)
							}
						})
						m.SetTracing(true)
						t.Logf("warm %s: %d B/call into a warm dst", label, per)
						if per != 0 {
							t.Errorf("warm %s allocates %d B per call into a warm dst; want 0", label, per)
						}
					}
				}
			}
		}
	}
}
