// The shared-graph walls. Every instance of a run aliases the arrays of
// one graph.Simple; these tests are what fails when an engine sorts,
// patches or appends to a shared row, or when loading from a shared
// graph stops being the same thing as loading from the edge list.
package all

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/hpcl-repro/epg/internal/alloctest"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/kronecker"
	"github.com/hpcl-repro/epg/internal/simmachine"
	"github.com/hpcl-repro/epg/internal/verify"
)

// sharedGraphs is a weighted Kronecker graph loaded both ways, so the
// walls cover a nil In and a real one.
func sharedGraphs() []testGraph {
	und := kronecker.Generate(kronecker.Params{Scale: 9, Seed: 11})
	dir := *und
	dir.Directed = true
	return []testGraph{{"undirected", und}, {"directed", &dir}}
}

// digest hashes every value reachable from v — through unexported
// fields too, so from a *graph.Simple it covers Out and In and every
// structure an engine derived from the graph and left in its memo.
// Pointers are followed once; map entries fold order-independently,
// each walking what the others may share.
func digest(v reflect.Value) uint64 {
	d := &digester{h: fnv.New64a(), seen: map[uintptr]bool{}}
	d.walk(v)
	return d.h.Sum64()
}

type digester struct {
	h    hash.Hash64
	seen map[uintptr]bool
}

func (d *digester) put(x uint64) { binary.Write(d.h, binary.LittleEndian, x) }

func (d *digester) walk(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			d.put(1)
		} else {
			d.put(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.put(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		d.put(v.Uint())
	case reflect.Float32, reflect.Float64:
		d.put(math.Float64bits(v.Float()))
	case reflect.String:
		d.h.Write([]byte(v.String()))
	case reflect.Slice, reflect.Array:
		d.put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			d.walk(v.Index(i))
		}
	case reflect.Pointer:
		if v.IsNil() || d.seen[v.Pointer()] {
			d.put(0)
			return
		}
		d.seen[v.Pointer()] = true
		d.walk(v.Elem())
	case reflect.Interface:
		if !v.IsNil() {
			d.h.Write([]byte(v.Elem().Type().String()))
			d.walk(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			d.walk(v.Field(i))
		}
	case reflect.Map:
		var sum uint64
		for it := v.MapRange(); it.Next(); {
			e := &digester{h: fnv.New64a(), seen: maps.Clone(d.seen)}
			e.walk(it.Key())
			e.walk(it.Value())
			sum += e.h.Sum64()
		}
		d.put(uint64(v.Len()))
		d.put(sum)
	}
	// Funcs, channels and unsafe pointers hold no graph data.
}

// reaches reports whether the pointer p is reachable from v.
func reaches(v, p any) bool {
	d := &digester{h: fnv.New64a(), seen: map[uintptr]bool{}}
	d.walk(reflect.ValueOf(v))
	return d.seen[reflect.ValueOf(p).Pointer()]
}

// sharedLoads is every way an engine loads: the five engines, plus the
// compressed layouts of the two that have one (which share one
// compressed sibling of the graph).
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
// and requires the graph — its arrays and every structure the loads
// derived from it — to hash as it did once everything was loaded. The
// graph keeps PowerGraph's cut at one shard count only, so the wall
// runs once per count on the one graph.
func TestSharedGraphStaysImmutable(t *testing.T) {
	for _, tg := range sharedGraphs() {
		t.Run(tg.name, func(t *testing.T) {
			g, err := graph.Homogenize(tg.el)
			if err != nil {
				t.Fatal(err)
			}
			arrays := digest(reflect.ValueOf([]*graph.CSR{g.Out, g.In}))
			root := roots(g, 1)[0]
			for _, threads := range []int{8, 16} {
				var insts []engines.Instance
				for _, l := range sharedLoads {
					eng, err := New(l.engine)
					if err != nil {
						t.Fatal(err)
					}
					engines.Configure(eng, engines.Options{Compress: l.compress})
					inst := eng.LoadSimple(g, simmachine.New(simmachine.Haswell72(), threads))
					inst.BuildStructure()
					if l.compress && !reaches(inst, g.Compressed(g.Out)) {
						t.Errorf("compressed %s does not read the graph's compressed sibling", l.engine)
					}
					insts = append(insts, inst)
				}
				want := digest(reflect.ValueOf(g))
				pairs := 0
				var streamer engines.Streamer
				for i, l := range sharedLoads {
					eng, _ := New(l.engine)
					for _, alg := range engines.AllAlgorithms {
						if !eng.Has(alg) {
							continue
						}
						if _, err := engines.RunAlgorithm(insts[i], alg, root); err != nil {
							t.Fatalf("%s %s: %v", l.engine, alg, err)
						}
						pairs++
					}
					if st, ok := insts[i].(engines.Streamer); ok && !l.compress {
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

				if got := digest(reflect.ValueOf(g)); got != want {
					t.Fatalf("%d threads: shared graph or a structure derived from it changed under its instances: digest %016x, was %016x", threads, got, want)
				}
			}
			if got := digest(reflect.ValueOf([]*graph.CSR{g.Out, g.In})); got != arrays {
				t.Fatalf("shared graph changed under its loads: digest %016x, was %016x", got, arrays)
			}
		})
	}
}

// PowerGraph at 32, 64, 8 and 32 shards on one graph: a graph keeps the
// cuts of its last two shard counts, so the cut at 8 evicts the first
// one at 32, and the second load at 32 cuts again, evicting the one at
// 64. Every load must charge and run exactly as a load of a freshly
// homogenized graph does: results and every Region bit-equal.
func TestPowerGraphCutEvictionBitEqualFreshGraph(t *testing.T) {
	el := sharedGraphs()[0].el
	shared, err := graph.Homogenize(el)
	if err != nil {
		t.Fatal(err)
	}
	root := roots(shared, 1)[0]
	run := func(g *graph.Simple, threads int) ([]any, []simmachine.Region) {
		eng, _ := New(PowerGraph)
		m := simmachine.New(simmachine.Haswell72(), threads)
		inst := eng.LoadSimple(g, m)
		var outs []any
		for _, alg := range engines.AllAlgorithms {
			if !eng.Has(alg) {
				continue
			}
			out, err := engines.RunAlgorithm(inst, alg, root)
			if err != nil {
				t.Fatalf("%d shards %s: %v", threads, alg, err)
			}
			outs = append(outs, out)
		}
		return outs, m.Trace()
	}
	for step, threads := range []int{32, 64, 8, 32} {
		fresh, err := graph.Homogenize(el)
		if err != nil {
			t.Fatal(err)
		}
		gotOuts, gotTrace := run(shared, threads)
		wantOuts, wantTrace := run(fresh, threads)
		if !reflect.DeepEqual(gotOuts, wantOuts) {
			t.Errorf("step %d (%d shards): results differ from a fresh graph's", step, threads)
		}
		if !slices.Equal(gotTrace, wantTrace) {
			t.Errorf("step %d (%d shards): modeled regions differ from a fresh graph's", step, threads)
		}
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
						inst = eng.LoadSimple(g, m)
					} else if inst, err = eng.Load(tg.el, m); err != nil {
						t.Fatalf("%s load: %v", l.engine, err)
					}
					inst.BuildStructure()
					for _, alg := range engines.AllAlgorithms {
						if !eng.Has(alg) {
							continue
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

// retained is what dropping *v keeps alive (alloctest.Retained).
func retained[T any](v *T) uint64 {
	return alloctest.Retained(func() {
		var zero T
		*v = zero
	})
}

// TestLoadSharesOneGraph: every Engine.Load of one edge list reads one
// graph, graph's memo (graph.HomogenizeShared), as the Instance contract
// says, and nothing else shares it.
//   - A second load of an unedited kron-12 list, built and after one
//     warm kernel, keeps alive what a LoadSimple on the graph the first
//     load read does, within 1 %: a load that homogenizes a graph of its
//     own keeps that graph too (1.09 MB, where an instance keeps 5 to
//     200 KB) and what it derived from it. It logs each load's
//     footprint: what the instance keeps beyond the shared graph, and
//     that plus the structures it derives from the graph, per input
//     edge.
//   - An edge edited in place between two loads reaches the second: its
//     SSSP is that of a LoadSimple on a fresh graph.Homogenize of the
//     edited list.
//   - The reference oracle's graph (verify.Prepare) is its own, so
//     nothing an engine under test writes can reach it.
func TestLoadSharesOneGraph(t *testing.T) {
	el := kronecker.Generate(kronecker.Params{Scale: 12, Seed: 5})
	edges := float64(len(el.Edges))
	p := verify.Prepare(el)
	root := roots(p, 1)[0]
	// kernel runs the first of BFS and PageRank the engine has, both
	// sized by the graph alone, so two instances' scratch is alike.
	kernel := func(eng *engines.Engine, inst engines.Instance) {
		alg := engines.BFS
		if !eng.Has(alg) {
			alg = engines.PageRank
		}
		if _, err := engines.RunAlgorithm(inst, alg, root); err != nil {
			t.Fatalf("%s %s: %v", eng.Name, alg, err)
		}
	}
	// One worker: a BFS's claim queue grows with the race for each
	// parent, so at more its scratch differs from run to run.
	machine := func() *simmachine.Machine {
		m := newMachine()
		m.SetTracing(false) // a trace grows by design
		m.SetWorkers(1)
		return m
	}
	fresh, err := graph.Homogenize(el)
	if err != nil {
		t.Fatal(err)
	}
	bare := alloctest.Retained(func() { fresh.Out, fresh.In = nil, nil })
	t.Logf("the shared graph: %d B (%.2f B/edge) for %d input edges", bare, float64(bare)/edges, len(el.Edges))
	for _, l := range sharedLoads {
		name := l.engine
		if l.compress {
			name += " compressed"
		}
		eng, err := New(l.engine)
		if err != nil {
			t.Fatal(err)
		}
		engines.Configure(eng, engines.Options{Compress: l.compress})
		load := func() engines.Instance {
			inst, err := eng.Load(el, machine())
			if err != nil {
				t.Fatalf("%s load: %v", name, err)
			}
			inst.BuildStructure()
			kernel(eng, inst)
			return inst
		}
		load()
		second := load()
		g := graph.Memoized(el)
		if g == nil {
			t.Fatalf("%s: Load left no graph of the list in graph's memo", name)
		}
		simple := eng.LoadSimple(g, machine())
		simple.BuildStructure()
		kernel(eng, simple)
		got, want := retained(&second), retained(&simple)

		own, err := graph.Homogenize(el)
		if err != nil {
			t.Fatal(err)
		}
		alone := eng.LoadSimple(own, machine())
		alone.BuildStructure()
		kernel(eng, alone)
		both := []any{own, alone}
		derived := int64(retained(&both)) - int64(bare)
		t.Logf("%-20s keeps %7d B beyond the shared graph (%5.2f B/edge), %8d B with what it derives from the graph (%5.2f B/edge)",
			name, got, float64(got)/edges, derived, float64(derived)/edges)
		if diff := math.Abs(float64(got) - float64(want)); diff > 0.01*float64(want) {
			t.Errorf("%s: a second Load keeps %d B alive, a LoadSimple on the first Load's graph %d B; want them within 1 %%", name, got, want)
		}
	}

	for _, l := range sharedLoads {
		eng, _ := New(l.engine)
		if !eng.Has(engines.SSSP) || l.compress {
			continue
		}
		engines.Configure(eng, engines.Options{SyncSSSP: true})
		cp := *el
		cp.Edges = slices.Clone(el.Edges)
		sssp := func(inst engines.Instance) any {
			inst.BuildStructure()
			out, err := engines.RunAlgorithm(inst, engines.SSSP, root)
			if err != nil {
				t.Fatalf("%s SSSP: %v", l.engine, err)
			}
			return out
		}
		load := func() engines.Instance {
			inst, err := eng.Load(&cp, newMachine())
			if err != nil {
				t.Fatalf("%s load: %v", l.engine, err)
			}
			return inst
		}
		before := sssp(load())
		// An edge at the root made the lightest of its parallel edges:
		// the root's neighbor moves closer.
		at := slices.IndexFunc(cp.Edges, func(e graph.Edge) bool { return e.Src == root && e.Dst != root })
		cp.Edges[at].W = 1e-6
		got := sssp(load())
		edited, err := graph.Homogenize(&cp)
		if err != nil {
			t.Fatal(err)
		}
		want := sssp(eng.LoadSimple(edited, newMachine()))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: after an edit in place, Load's SSSP differs from a fresh graph's", l.engine)
		}
		if reflect.DeepEqual(got, before) {
			t.Errorf("%s: the edit in place moved no SSSP distance", l.engine)
		}
	}

	g, err := graph.HomogenizeShared(el)
	if err != nil {
		t.Fatal(err)
	}
	if p := verify.Prepare(el); p == g || p.Out == g.Out || &p.Out.Adj[0] == &g.Out.Adj[0] {
		t.Error("verify.Prepare returned the graph every engine load shares")
	}
}
