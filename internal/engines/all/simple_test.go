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

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/kronecker"
	"github.com/hpcl-repro/epg/internal/simmachine"
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
