// The shared-graph walls. Every instance of a run aliases the arrays of
// one graph.Simple; these tests are what fails when an engine sorts,
// patches or appends to a shared row, or when loading from a shared
// graph stops being the same thing as loading from the edge list.
package all

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/kronecker"
)

// sharedGraphs is a weighted Kronecker graph loaded both ways, so the
// walls cover a nil In and a real one.
func sharedGraphs() []testGraph {
	und := kronecker.Generate(kronecker.Params{Scale: 9, Seed: 11})
	dir := *und
	dir.Directed = true
	return []testGraph{{"undirected", und}, {"directed", &dir}}
}

// simpleDigest hashes every array of g, lengths included.
func simpleDigest(g *graph.Simple) uint64 {
	h := fnv.New64a()
	for _, c := range []*graph.CSR{g.Out, g.In} {
		if c == nil {
			continue
		}
		binary.Write(h, binary.LittleEndian, []int64{int64(len(c.Offsets)), int64(len(c.Adj)), int64(len(c.Weights))})
		binary.Write(h, binary.LittleEndian, c.Offsets)
		binary.Write(h, binary.LittleEndian, c.Adj)
		binary.Write(h, binary.LittleEndian, c.Weights)
	}
	return h.Sum64()
}

// sharedLoads is every way an engine loads: the five engines, plus the
// compressed layouts of the two that have one.
var sharedLoads = []struct {
	engine   string
	compress bool
}{
	{Graph500, false}, {Graph500, true}, {GAP, false}, {GAP, true},
	{GraphBIG, false}, {GraphMat, false}, {PowerGraph, false},
}

// TestSharedGraphStaysImmutable loads every engine from one
// graph.Simple, runs every supported engine/kernel pair (22, and the 5
// of the compressed layouts) and a GAP stream phase on the instances,
// and requires the graph's arrays to hash as they did before anything
// was loaded.
func TestSharedGraphStaysImmutable(t *testing.T) {
	for _, tg := range sharedGraphs() {
		t.Run(tg.name, func(t *testing.T) {
			g, err := graph.Homogenize(tg.el)
			if err != nil {
				t.Fatal(err)
			}
			want := simpleDigest(g)
			root := roots(g, 1)[0]
			pairs := 0
			var streamer engines.Streamer
			for _, l := range sharedLoads {
				eng, err := New(l.engine)
				if err != nil {
					t.Fatal(err)
				}
				engines.Configure(eng, engines.Options{Compress: l.compress})
				inst, err := eng.LoadSimple(g, newMachine())
				if err != nil {
					t.Fatalf("%s load: %v", l.engine, err)
				}
				inst.BuildStructure()
				for _, alg := range engines.AllAlgorithms {
					if !eng.Has(alg) {
						continue
					}
					if _, err := engines.RunAlgorithm(inst, alg, root); err != nil {
						t.Fatalf("%s %s: %v", l.engine, alg, err)
					}
					pairs++
				}
				if st, ok := inst.(engines.Streamer); ok && !l.compress {
					streamer = st
				}
			}
			if pairs != 22+5 {
				t.Fatalf("ran %d engine/kernel pairs, want 22 and 5 compressed", pairs)
			}

			// One stored edge out, one absent edge in: the rows of root
			// are rebuilt, which is where an in-place patch would land.
			absent := graph.VID(0)
			for absent == root || g.Out.HasEdge(root, absent) {
				absent++
			}
			batch := graph.Batch{
				{Op: graph.MutDelete, Src: root, Dst: g.Out.Neighbors(root)[0]},
				{Op: graph.MutInsert, Src: root, Dst: absent, W: 0.5},
			}
			if _, err := streamer.Mutate(batch); err != nil {
				t.Fatal(err)
			}
			if _, err := streamer.IncrementalPageRank(engines.DefaultPROpts()); err != nil {
				t.Fatal(err)
			}
			if _, err := streamer.IncrementalWCC(); err != nil {
				t.Fatal(err)
			}

			if got := simpleDigest(g); got != want {
				t.Fatalf("shared graph changed under its instances: digest %016x, was %016x", got, want)
			}
		})
	}
}

// TestLoadSimpleEqualsLoad: an instance loaded from a shared graph and
// one loaded from the edge list give the same results and have charged
// the same modeled time, for every engine and kernel.
func TestLoadSimpleEqualsLoad(t *testing.T) {
	for _, tg := range sharedGraphs() {
		t.Run(tg.name, func(t *testing.T) {
			g, err := graph.Homogenize(tg.el)
			if err != nil {
				t.Fatal(err)
			}
			root := roots(g, 1)[0]
			for _, l := range sharedLoads {
				var outs [2][]any
				var elapsed [2]float64
				for side := range outs {
					eng, err := New(l.engine)
					if err != nil {
						t.Fatal(err)
					}
					// Synchronous SSSP: the chaotic ones charge by schedule.
					engines.Configure(eng, engines.Options{SyncSSSP: true, Compress: l.compress})
					m := newMachine()
					var inst engines.Instance
					if side == 0 {
						inst, err = eng.LoadSimple(g, m)
					} else {
						inst, err = eng.Load(tg.el, m)
					}
					if err != nil {
						t.Fatalf("%s load: %v", l.engine, err)
					}
					inst.BuildStructure()
					for _, alg := range engines.AllAlgorithms {
						if !eng.Has(alg) {
							continue
						}
						if alg == engines.WCC && (l.engine == GAP || l.engine == GraphBIG) {
							m.SetWorkers(1) // ROADMAP 1a: the one schedule-dependent trip count
						}
						out, err := engines.RunAlgorithm(inst, alg, root)
						if err != nil {
							t.Fatalf("%s %s: %v", l.engine, alg, err)
						}
						outs[side] = append(outs[side], out)
					}
					elapsed[side] = m.Elapsed()
				}
				if elapsed[0] != elapsed[1] {
					t.Errorf("%s (compress %v): LoadSimple charged %v, Load %v", l.engine, l.compress, elapsed[0], elapsed[1])
				}
				if !reflect.DeepEqual(outs[0], outs[1]) {
					t.Errorf("%s (compress %v): results differ between LoadSimple and Load", l.engine, l.compress)
				}
			}
		})
	}
}
