package harness

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/all"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/xrand"
)

// The Runner-program opcodes: the low nibble of an op byte, modulo
// numOps. Bit 0 of the high nibble picks one of the two edge lists, the
// other three bits are a parameter; operands follow.
const (
	opRun        = iota // then a spec
	opSweep             // then a spec and a byte: bits 0-3 the thread counts of {1, 4, 8, 64} (none: {1, 4}), bit 4 two trials
	opConcurrent        // 2 + param%3 Runs in goroutines: then their specs
	opReweigh           // then an edge index (two bytes) and a weight byte
	opAppend            // then src, dst and a weight byte
	opRemove            // then an edge index (two bytes): swap-remove
	opFlip              // flip Directed
	opShuffle           // then an xrand seed (inert)
	opDuplicate         // then an edge index (two bytes) and a byte of extra weight; param bit 0 swaps an undirected edge (inert)
	opSelfLoop          // then a vertex and a weight byte (inert)
	opCopy              // replace the list with a deep copy
	numOps
)

var (
	programThreads = []int{8, 16, 32, 64}
	programWorkers = []int{1, 2, 4}
	sweepThreads   = []int{1, 4, 8, 64}
)

// progReader hands out a program's bytes; past the end it reads zeros.
type progReader struct {
	b []byte
	i int
}

func (r *progReader) next() byte {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return r.b[r.i-1]
}

func (r *progReader) index() int { return int(r.next())<<8 | int(r.next()) }

// weight is a weight byte's edge weight, in (0, 1].
func weight(b byte) float32 { return float32(int(b)+1) / 256 }

// programList decodes an edge list from four header bytes: flags (bit 0
// directed, bit 1 weighted, bits 2-3 kron-8, kron-9 or, for 2 and 3, a
// random list), a seed, and for a random list its vertex count 8 + b%41
// and its edge count b mod 4n+1 (self-loops and parallel edges
// included).
func programList(t *testing.T, r *progReader) (*graph.EdgeList, string) {
	flags, seed, nb, mb := r.next(), r.next(), r.next(), r.next()
	var el *graph.EdgeList
	name := "random"
	if kind := int(flags >> 2 & 3); kind < 2 {
		name = fmt.Sprintf("kron-%d", 8+kind)
		var err error
		if el, err = ResolveDataset(name, DatasetOptions{Seed: uint64(seed)}); err != nil {
			t.Fatal(err)
		}
	} else {
		n := 8 + int(nb)%41
		rng := xrand.New(uint64(seed))
		el = &graph.EdgeList{NumVertices: n}
		for range int(mb) % (4*n + 1) {
			el.Edges = append(el.Edges, graph.Edge{Src: graph.VID(rng.Intn(n)), Dst: graph.VID(rng.Intn(n)), W: float32(1 - rng.Float64())})
		}
	}
	el.Directed, el.Weighted = flags&1 != 0, flags&2 != 0
	return el, name
}

// programSpec decodes a spec from five bytes:
//   - bits 0-2 the kernel (engines.AllAlgorithms, mod 6), 3-4 Threads 8/16/32/64 (PowerGraph's
//     shard count), 5-6 Workers 1/2/4 (mod 3), 7 Compress;
//   - bits 0-4 the engines (one bit each in all.Names order, those
//     without the kernel skipped; none: every engine), 5 two roots, 6
//     MeasurePower, 7 a streaming phase, on GAP alone, for PR and WCC;
//   - the root seed;
//   - the stream's 1 + b%3 batches of 8 + b/3%25 ops;
//   - its delete fraction (b&15)/20 and its seed b>>4.
//
// SyncSSSP is always on, so every kernel is schedule-independent.
func programSpec(r *progReader, dataset string) core.Spec {
	b := [5]byte{r.next(), r.next(), r.next(), r.next(), r.next()}
	s := core.Spec{
		Dataset:      dataset,
		Algorithm:    engines.AllAlgorithms[int(b[0]&7)%len(engines.AllAlgorithms)],
		Threads:      programThreads[b[0]>>3&3],
		Workers:      programWorkers[int(b[0]>>5&3)%len(programWorkers)],
		Compress:     b[0]&0x80 != 0,
		Roots:        1 + int(b[1]>>5&1),
		MeasurePower: b[1]&0x40 != 0,
		Seed:         uint64(b[2]),
		SyncSSSP:     true,
	}
	for i, d := range all.Registry() {
		if b[1]>>i&1 != 0 && d.Has(s.Algorithm) {
			s.Engines = append(s.Engines, d.Name)
		}
	}
	if b[1]&0x80 != 0 && (s.Algorithm == engines.PageRank || s.Algorithm == engines.WCC) {
		s.Engines = []string{all.GAP}
		s.Mutations = &core.MutationSchedule{Batches: 1 + int(b[3])%3, BatchSize: 8 + int(b[3])/3%25, DeleteFrac: float64(b[4]&15) / 20, Seed: uint64(b[4] >> 4)}
	}
	return s
}

// specBytes encodes s for programSpec.
func specBytes(s core.Spec) []byte {
	bit := func(ok bool, shift int) byte {
		if ok {
			return 1 << shift
		}
		return 0
	}
	b := []byte{
		byte(slices.Index(engines.AllAlgorithms, s.Algorithm)) | byte(slices.Index(programThreads, s.Threads))<<3 |
			byte(slices.Index(programWorkers, s.Workers))<<5 | bit(s.Compress, 7),
		byte(s.Roots-1)<<5 | bit(s.MeasurePower, 6) | bit(s.Mutations != nil, 7),
		byte(s.Seed), 0, 0,
	}
	for i, name := range all.Names {
		b[1] |= bit(slices.Contains(s.Engines, name), i)
	}
	if ms := s.Mutations; ms != nil {
		b[3] = byte(ms.Batches - 1 + 3*(ms.BatchSize-8))
		b[4] = byte(ms.DeleteFrac*20) | byte(ms.Seed)<<4
	}
	return b
}

// call is one Run or, with threads set, one Sweep.
type call struct {
	spec    core.Spec
	threads []int
	trials  int
}

// key is the call as the oracle runs it: at one worker.
func (c call) key() string {
	s := c.spec
	s.Workers = 1
	var ms core.MutationSchedule
	if s.Mutations != nil {
		ms, s.Mutations = *s.Mutations, nil
	}
	return fmt.Sprintf("%+v %+v %v %d", s, ms, c.threads, c.trials)
}

// outcome is what a call returned, the wall clock zeroed, and the
// warning lines it wrote.
type outcome struct {
	rows     []core.Result
	points   []SweepPoint
	err      string
	warnings []string
}

// do makes c on r and el.
func (c call) do(r *Runner, el *graph.EdgeList) outcome {
	return c.through(func(s core.Spec) ([]core.Result, error) { return r.Run(s, el) })
}

// through makes c with run making each Run, as Sweep does.
func (c call) through(run func(core.Spec) ([]core.Result, error)) (o outcome) {
	var err error
	if c.threads == nil {
		o.rows, err = run(c.spec)
		for i := range o.rows {
			o.rows[i].WallSec = 0 // the one column that need not repeat
		}
	} else {
		o.points, err = sweep(c.spec, c.threads, c.trials, run)
	}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// loadPhases drops the read and build columns, the only ones an input
// edge the graph does not keep may move.
func loadPhases(rs []core.Result) []core.Result {
	rs = slices.Clone(rs)
	for i := range rs {
		rs[i].FileReadSec, rs[i].ConstructionSec = 0, 0
	}
	return rs
}

// near is reflect.DeepEqual but for float64s, which need only agree to
// a relative 1e-12. A longer read phase moves the machine's running
// clock, and every other modeled time is a difference of two of its
// readings, so their last bits move with it.
func near(x, y reflect.Value) bool {
	switch x.Kind() {
	case reflect.Float64:
		a, b := x.Float(), y.Float()
		return math.Abs(a-b) <= 1e-12*max(math.Abs(a), math.Abs(b))
	case reflect.Struct:
		for i := range x.NumField() {
			if !near(x.Field(i), y.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if x.Len() != y.Len() {
			return false
		}
		for i := range x.Len() {
			if !near(x.Index(i), y.Index(i)) {
				return false
			}
		}
		return true
	}
	return x.Equal(y)
}

// overlapWriter collects warning lines and counts the Writes in flight.
// Each Write holds for hold first, so two Writes the Runner does not
// serialize overlap.
type overlapWriter struct {
	hold     time.Duration
	inFlight atomic.Int32
	overlaps atomic.Int32
	mu       sync.Mutex
	buf      bytes.Buffer
}

func (w *overlapWriter) Write(p []byte) (int, error) {
	if w.inFlight.Add(1) > 1 {
		w.overlaps.Add(1)
	}
	time.Sleep(w.hold)
	w.inFlight.Add(-1)
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// take returns the lines written since the last take.
func (w *overlapWriter) take() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.buf.String()
	w.buf.Reset()
	return lines(s)
}

func lines(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(strings.TrimSuffix(s, "\n"), "\n")
}

// record is one op of a program run, for the seeding checks.
type record struct {
	op       int
	calls    []call
	got      []outcome
	g        *graph.Simple // the list's graph in graph's memo after the op
	inFlight int32         // the most Runs of the op in flight at once
}

// runnerProgram is the state of one FuzzRunnerProgram run: the Runner
// under test, the two edge lists it runs over, and the oracle's memo.
type runnerProgram struct {
	t     *testing.T
	r     *Runner
	warn  *overlapWriter
	lists [2]*graph.EdgeList
	names [2]string
	// ran[i] are the calls made on list i since its content last changed
	// other than by an inert edit, the latest maxRan of them.
	ran  [2][]call
	memo map[string]outcome
	// The list of the last call, its content then and its graph in
	// graph's memo after it.
	prevEL      *graph.EdgeList
	prevContent string
	prevG       *graph.Simple
	log         []record
}

// maxRan bounds the calls an inert edit replays.
const maxRan = 4

// content is el's exact content: what the oracle's memo is keyed by, and
// what the Runner's fingerprint stands for.
func content(el *graph.EdgeList) string {
	return fmt.Sprint(el.NumVertices, el.Directed, el.Weighted, el.Edges)
}

// FuzzRunnerProgram runs byte programs against one Runner over two edge
// lists: Runs, Sweeps and concurrent Runs with specs across the kernels,
// engines, PowerGraph shard counts, worker counts, compression, power
// metering and GAP streaming phases; in-place edits (reweigh, append or
// swap-remove an edge, flip Directed); inert edits (shuffle the edges,
// append a duplicate no lighter than the stored edge, append a
// self-loop); and a copy of a list (same content, new pointer). The
// header is the two lists, four bytes each (programList). The checks,
// after every op:
//   - every call returns what a fresh Runner returns at one worker on
//     a graph of the list's current content built for it, outside
//     graph's memo (graph.Homogenize) — rows but for the wall
//     clock, Sweep points, the error string and the warning lines (a
//     multiset under concurrency) — so no state the Runner keeps
//     between calls (the graph memo, the engines' derived structures,
//     the pooled instances) and no worker count shows in a result;
//   - the calls leave the list's graph in graph's memo, read without
//     building (graph.Memoized), and it is the last call's graph
//     exactly when the call's list is the last call's list with the
//     same content: an edit in place or a copy gets a new graph, and a
//     Run that bypasses the memo or serves a stale graph fails;
//   - an inert edit leaves the homogenized Out and In DeepEqual and
//     InputEdges moved only by a duplicate or self-loop, and every call
//     since the last content edit returns the same rows: bit for bit
//     after a shuffle, and but for the read and build phases after an
//     appended edge. Every engine reads only the homogenized graph, so
//     this is SSSP distances, LCC values and the rest unchanged by edge
//     order and by duplicates no lighter than the original.
//
// Writes to Runner.Warnings are held for a millisecond under concurrent
// Runs, so two the Runner does not serialize overlap and fail.
//
// The seeds are the sequence walls this replaces, and four sequences
// no wall tried: seed#0 an edge at the first root reweighed in place
// between two SSSP Runs; seed#1 SSSP and PR, a copy, SSSP and PR again;
// seed#2 seven specs (compressed BFS, SSSP at 64 threads, a GAP PR
// stream, PR, CDLP at 64, LCC, BFS) over kron-9, directed kron-8, kron-9;
// seed#3 four specs concurrently, three rounds; seed#4 a sweep five
// times; seed#5 a GAP PR stream at Workers 1 and 4; seed#6 SSSP failing
// in GAP's kernel after its instance was bound, then BFS, PR and WCC on
// the pooled instances; seed#7 each inert edit between Runs of SSSP,
// LCC, BFS and WCC; seed#8 concurrent compressed PR Runs whose dropped
// knobs all write to one Warnings; seed#9 PowerGraph's cut evicted across
// shard counts 64, 8, 16, 64, 8 on a sparse random list, whose greedy cut
// uses more than eight shards (a Kronecker list's uses six at every
// count, so there the shard count never shows in a row); seed#10 two
// rounds of concurrent Runs, two of them GAP PR streams, each of which
// holds two machines at once, after which the Runner keeps no more than
// its two.
func FuzzRunnerProgram(f *testing.F) {
	el, err := ResolveDataset("kron-9", DatasetOptions{Seed: 42})
	if err != nil {
		f.Fatal(err)
	}
	g, err := graph.Homogenize(el)
	if err != nil {
		f.Fatal(err)
	}
	root := core.SelectRoots(g.Out, 2, 42)[0]
	atRoot := slices.IndexFunc(el.Edges, func(e graph.Edge) bool { return e.Src == root || e.Dst == root })

	list := func(flags, seed byte) []byte { return []byte{flags, seed, 0, 0} }
	const (
		directed = 1
		weighted = 2
		kron8    = 0 << 2
		kron9    = 1 << 2
		random   = 2 << 2
	)
	spec := func(alg engines.Algorithm, threads int) core.Spec {
		return core.Spec{Dataset: "kron-9", Algorithm: alg, Threads: threads, Workers: 2, Roots: 2, Seed: 42, SyncSSSP: true}
	}
	// enc is specBytes checked against programSpec: a seed is the wall
	// it replaces only if its specs are the wall's.
	enc := func(s core.Spec) []byte {
		b := specBytes(s)
		if got := programSpec(&progReader{b: b}, s.Dataset); !reflect.DeepEqual(got, s) {
			f.Fatalf("spec %+v decodes as %+v", s, got)
		}
		return b
	}
	op := func(code, li int, operands ...byte) []byte { return append([]byte{byte(li<<4 | code)}, operands...) }
	runs := func(li int, ss ...core.Spec) (b []byte) {
		for _, s := range ss {
			b = append(b, op(opRun, li, enc(s)...)...)
		}
		return b
	}
	concurrent := func(li int, ss ...core.Spec) []byte {
		b := op(opConcurrent, li|(len(ss)-2)<<1)
		for _, s := range ss {
			b = append(b, enc(s)...)
		}
		return b
	}
	prog := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	runsOf := func(p *runnerProgram, code int) (rs []record) {
		for _, r := range p.log {
			if r.op == code {
				rs = append(rs, r)
			}
		}
		return rs
	}

	sssp := spec(engines.SSSP, 8)
	pr := spec(engines.PageRank, 8)
	bfs := spec(engines.BFS, 8)
	cbfs := bfs
	cbfs.Compress = true
	stream := pr
	stream.Engines = []string{all.GAP}
	stream.Mutations = &core.MutationSchedule{Batches: 2, BatchSize: 32, DeleteFrac: 0.25, Seed: 3}
	across := []core.Spec{cbfs, spec(engines.SSSP, 64), stream, pr, spec(engines.CDLP, 64), spec(engines.LCC, 8), bfs}
	across8 := slices.Clone(across)
	for i := range across8 {
		across8[i].Dataset = "kron-8"
	}
	together := []core.Spec{cbfs, spec(engines.SSSP, 16), pr, spec(engines.CDLP, 32)}
	sweep := spec(engines.BFS, 8)
	stream5 := spec(engines.PageRank, 8)
	stream5.Engines = []string{all.GAP}
	stream5.Mutations = &core.MutationSchedule{Batches: 3, BatchSize: 32, DeleteFrac: 0.4, Seed: 11}
	stream5.Workers = 1
	stream5w4 := stream5
	stream5w4.Workers = 4
	small := func(alg engines.Algorithm) core.Spec { s := spec(alg, 8); s.Dataset = "kron-8"; return s }
	exact := []core.Spec{small(engines.SSSP), small(engines.LCC), small(engines.BFS), small(engines.WCC)}
	cpr := func(threads int) core.Spec { s := spec(engines.PageRank, threads); s.Compress = true; return s }
	var cuts []core.Spec
	for i, alg := range []engines.Algorithm{engines.PageRank, engines.PageRank, engines.SSSP, engines.CDLP, engines.WCC} {
		s := spec(alg, []int{64, 8, 16, 64, 8}[i])
		s.Dataset = "random"
		cuts = append(cuts, s)
	}

	seeds := []struct {
		prog  []byte
		check func(p *runnerProgram) error
	}{
		{prog(list(kron9|weighted, 42), list(kron8|weighted, 7), runs(0, sssp), op(opReweigh, 0, byte(atRoot>>8), byte(atRoot), 0), runs(0, sssp)),
			func(p *runnerProgram) error {
				rs := runsOf(p, opRun)
				if rs[0].g == rs[1].g || reflect.DeepEqual(rs[0].got, rs[1].got) {
					return fmt.Errorf("the edit in place moved no SSSP row or kept the graph")
				}
				return nil
			}},
		{prog(list(kron9|weighted, 42), list(kron8|weighted, 7), runs(0, sssp, pr), op(opCopy, 0), runs(0, sssp, pr)),
			func(p *runnerProgram) error {
				rs := runsOf(p, opRun)
				for i := range 2 {
					if rs[i].g == rs[i+2].g || !reflect.DeepEqual(rs[i].got, rs[i+2].got) {
						return fmt.Errorf("%s: the copy kept the graph or moved a row", rs[i].calls[0].spec.Algorithm)
					}
				}
				return nil
			}},
		{prog(list(kron9|weighted, 42), list(kron8|weighted|directed, 7), runs(0, across...), runs(1, across8...), runs(0, across...)), nil},
		{prog(list(kron9|weighted, 42), list(kron8|weighted, 7), concurrent(0, together...), concurrent(0, together...), concurrent(0, together...)),
			func(p *runnerProgram) error {
				pg, _ := all.Registry().Decl(all.PowerGraph)
				var most int32
				shards := map[int]bool{}
				for _, r := range runsOf(p, opConcurrent) {
					most = max(most, r.inFlight)
					for _, c := range r.calls {
						if pg.Has(c.spec.Algorithm) && (c.spec.Engines == nil || slices.Contains(c.spec.Engines, pg.Name)) {
							shards[c.spec.Threads] = true
						}
					}
				}
				if most < 2 || len(shards) < 3 {
					return fmt.Errorf("at most %d Runs in flight at once, PowerGraph at %d shard counts", most, len(shards))
				}
				return nil
			}},
		{prog(list(kron9|weighted, 42), list(kron8|weighted, 7), slices.Repeat(op(opSweep, 0, append(enc(sweep), 0b0011)...), 5)), nil},
		{prog(list(kron9|weighted, 42), list(kron8|weighted, 7), runs(0, stream5, stream5w4)), nil},
		{prog(list(kron8, 42), list(kron8|weighted, 7), runs(0, small(engines.SSSP), small(engines.BFS), small(engines.PageRank), small(engines.WCC))),
			func(p *runnerProgram) error {
				rs := runsOf(p, opRun)
				if !strings.Contains(rs[0].got[0].err, "algorithm not provided") {
					return fmt.Errorf("SSSP on an unweighted list returned %q", rs[0].got[0].err)
				}
				if p.r.idle[all.GAP].inst == nil {
					return fmt.Errorf("GAP's instance was not given back")
				}
				return nil
			}},
		{prog(list(kron8|weighted, 42), list(kron8|weighted, 7), runs(0, exact...),
			op(opShuffle, 0, 5), runs(0, exact...),
			op(opDuplicate, 0|1<<1, 0x01, 0x10, 0x80), runs(0, exact...),
			op(opSelfLoop, 0, 3, 0x40), runs(0, exact...)),
			func(p *runnerProgram) error {
				for _, code := range []int{opShuffle, opDuplicate, opSelfLoop} {
					if rs := runsOf(p, code); len(rs) != 1 || len(rs[0].calls) != len(exact) {
						return fmt.Errorf("inert edit %d replayed no calls", code)
					}
				}
				return nil
			}},
		{prog(list(kron9|weighted, 42), list(kron8|weighted, 7), concurrent(0, cpr(8), cpr(16), cpr(32), cpr(64)), concurrent(0, cpr(8), cpr(16), cpr(32), cpr(64))), nil},
		{prog([]byte{random | weighted, 2, 40, 24}, list(kron8|weighted, 7), runs(0, cuts...)),
			func(p *runnerProgram) error {
				used := 0
				g := graph.Memoized(p.lists[0])
				if g == nil {
					return fmt.Errorf("the Runner left no graph of the list in graph's memo")
				}
				for _, load := range graph.GreedyVertexCut(g.Out, 64, nil).Loads {
					if load > 0 {
						used++
					}
				}
				if used <= 8 {
					return fmt.Errorf("the 64-shard cut uses %d shards, the 8-shard cut can be the same", used)
				}
				return nil
			}},
		{prog(list(kron9|weighted, 42), list(kron8|weighted, 7), concurrent(0, stream, stream5w4, pr, sssp), concurrent(0, stream, stream5w4, pr, sssp)),
			func(p *runnerProgram) error {
				if n := len(p.r.idleM); n == 0 || n > idleMachines {
					return fmt.Errorf("the Runner keeps %d idle machines, want 1 to %d", n, idleMachines)
				}
				return nil
			}},
	}
	checks := map[string]func(*runnerProgram) error{}
	for _, s := range seeds {
		f.Add(s.prog)
		if s.check != nil {
			checks[string(s.prog)] = s.check
		}
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 256 {
			return
		}
		p := runRunnerProgram(t, prog)
		if check := checks[string(prog)]; check != nil {
			if err := check(p); err != nil {
				t.Fatalf("the seed does not do what its wall did: %v", err)
			}
		}
	})
}

func runRunnerProgram(t *testing.T, prog []byte) *runnerProgram {
	rd := &progReader{b: prog}
	p := &runnerProgram{t: t, r: testRunner(), warn: &overlapWriter{}, memo: map[string]outcome{}}
	p.r.Warnings = p.warn
	for i := range p.lists {
		p.lists[i], p.names[i] = programList(t, rd)
	}
	for rd.i < len(prog) {
		b := rd.next()
		code, li, param := int(b&15)%numOps, int(b>>4&1), int(b>>5)
		el := p.lists[li]
		at := func() (int, bool) {
			i := rd.index()
			if len(el.Edges) == 0 {
				return 0, false
			}
			return i % len(el.Edges), true
		}
		switch code {
		case opRun:
			p.calls(code, li, []call{{spec: programSpec(rd, p.names[li])}})
		case opSweep:
			c := call{spec: programSpec(rd, p.names[li])}
			b := rd.next()
			for i, tc := range sweepThreads {
				if b>>i&1 != 0 || b&15 == 0 && i < 2 {
					c.threads = append(c.threads, tc)
				}
			}
			c.trials = 1 + int(b>>4&1)
			p.calls(code, li, []call{c})
		case opConcurrent:
			cs := make([]call, 2+param%3)
			for i := range cs {
				cs[i].spec = programSpec(rd, p.names[li])
			}
			p.calls(code, li, cs)
		case opReweigh:
			i, ok := at()
			w := weight(rd.next())
			if ok {
				el.Edges[i].W = w
			}
			p.ran[li] = nil
		case opAppend:
			u, v, w := rd.next(), rd.next(), weight(rd.next())
			el.Edges = append(el.Edges, graph.Edge{Src: graph.VID(int(u) % el.NumVertices), Dst: graph.VID(int(v) % el.NumVertices), W: w})
			p.ran[li] = nil
		case opRemove:
			if i, ok := at(); ok {
				last := len(el.Edges) - 1
				el.Edges[i] = el.Edges[last]
				el.Edges = el.Edges[:last]
			}
			p.ran[li] = nil
		case opFlip:
			el.Directed = !el.Directed
			p.ran[li] = nil
		case opShuffle:
			rng := xrand.New(uint64(rd.next()))
			p.inert(code, li, func() {
				rng.Shuffle(len(el.Edges), func(i, j int) { el.Edges[i], el.Edges[j] = el.Edges[j], el.Edges[i] })
			})
		case opDuplicate:
			i, ok := at()
			extra := float32(rd.next()) / 255
			if !ok {
				break
			}
			p.inert(code, li, func() {
				e := el.Edges[i]
				if el.Weighted {
					e.W = max(e.W, min(1, e.W+(1-e.W)*extra))
				}
				if param&1 != 0 && !el.Directed {
					e.Src, e.Dst = e.Dst, e.Src
				}
				el.Edges = append(el.Edges, e)
			})
		case opSelfLoop:
			v, w := graph.VID(int(rd.next())%el.NumVertices), weight(rd.next())
			p.inert(code, li, func() { el.Edges = append(el.Edges, graph.Edge{Src: v, Dst: v, W: w}) })
		case opCopy:
			cp := *el
			cp.Edges = slices.Clone(el.Edges)
			p.lists[li] = &cp
		}
	}
	return p
}

// oracle is what a fresh Runner returns for c on el, whose content is
// cont, at one worker. It makes each Run's steps on a graph of its own
// (graph.Homogenize), outside graph's memo, so it reads no graph the
// Runner under test built and leaves the memo as the Runner left it.
func (p *runnerProgram) oracle(cont string, el *graph.EdgeList, c call) outcome {
	key := cont + "\x00" + c.key()
	if o, ok := p.memo[key]; ok {
		return o
	}
	var buf bytes.Buffer
	r := testRunner()
	r.Warnings = &buf
	c.spec.Workers = 1
	var g *graph.Simple
	o := c.through(func(s core.Spec) ([]core.Result, error) {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if g == nil {
			var err error
			if g, err = graph.Homogenize(el); err != nil {
				return nil, err
			}
		}
		return r.run(s, g)
	})
	o.warnings = lines(buf.String())
	p.memo[key] = o
	return o
}

// calls makes cs on list li, in goroutines when there are several, and
// checks them against the oracle and the graph they left in graph's
// memo against the last call's.
func (p *runnerProgram) calls(code, li int, cs []call) {
	t, el := p.t, p.lists[li]
	cont := content(el)
	got := make([]outcome, len(cs))
	rec := record{op: code, calls: cs, got: got}
	if len(cs) == 1 {
		got[0] = cs[0].do(p.r, el)
	} else {
		var inFlight atomic.Int32
		peaks := make([]int32, len(cs))
		var wg sync.WaitGroup
		p.warn.hold = time.Millisecond
		for i, c := range cs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				peaks[i] = inFlight.Add(1)
				got[i] = c.do(p.r, el)
				inFlight.Add(-1)
			}()
		}
		wg.Wait()
		p.warn.hold = 0
		rec.inFlight = slices.Max(peaks)
	}
	if n := p.warn.overlaps.Load(); n > 0 {
		t.Fatalf("%d Writes to Runner.Warnings overlapped", n)
	}

	// The calls left el's graph in graph's memo.
	if rec.g = graph.Memoized(el); rec.g == nil {
		t.Fatal("the calls left no graph of the list in graph's memo")
	}
	same := p.prevEL == el && p.prevContent == cont
	if same && rec.g != p.prevG {
		t.Fatal("the edge list of the last call, unchanged, was homogenized again")
	}
	if !same && rec.g == p.prevG {
		t.Fatal("an edge list edited in place or copied since the last call kept the last call's graph")
	}
	p.prevEL, p.prevContent, p.prevG = el, cont, rec.g

	var wantWarnings []string
	for i, c := range cs {
		want := p.oracle(cont, el, c)
		wantWarnings = append(wantWarnings, want.warnings...)
		if got[i].err != want.err {
			t.Fatalf("%s: error %q, a fresh Runner's %q", c.key(), got[i].err, want.err)
		}
		if !reflect.DeepEqual(got[i].rows, want.rows) || !reflect.DeepEqual(got[i].points, want.points) {
			t.Fatalf("%s at %d workers: the Runner's rows differ from a fresh Runner's at one\n got %+v %+v\nwant %+v %+v",
				c.key(), c.spec.Workers, got[i].rows, got[i].points, want.rows, want.points)
		}
		if i := slices.IndexFunc(p.ran[li], func(r call) bool { return r.key() == c.key() }); i >= 0 {
			p.ran[li] = slices.Delete(p.ran[li], i, i+1)
		}
		p.ran[li] = append(p.ran[li], c)
		if len(p.ran[li]) > maxRan {
			p.ran[li] = p.ran[li][1:]
		}
	}
	gotWarnings := p.warn.take()
	if len(cs) > 1 {
		slices.Sort(gotWarnings)
		slices.Sort(wantWarnings)
	}
	if !slices.Equal(gotWarnings, wantWarnings) {
		t.Fatalf("warnings %q, a fresh Runner's %q", gotWarnings, wantWarnings)
	}
	p.log = append(p.log, rec)
}

// inert applies edit, which must not change the graph of list li, and
// checks that it does not, nor the outcome of any call since the last
// content edit.
func (p *runnerProgram) inert(code, li int, edit func()) {
	t, el := p.t, p.lists[li]
	cont := content(el)
	before := make([]outcome, len(p.ran[li]))
	for i, c := range p.ran[li] {
		before[i] = p.oracle(cont, el, c)
	}
	gb, err := graph.Homogenize(el)
	if err != nil {
		t.Fatal(err)
	}
	edit()
	ga, err := graph.Homogenize(el)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gb.Out, ga.Out) || !reflect.DeepEqual(gb.In, ga.In) {
		t.Fatalf("inert edit %d changed the homogenized graph", code)
	}
	appended := code != opShuffle
	want := gb.InputEdges
	if appended {
		want++
	}
	if ga.InputEdges != want {
		t.Fatalf("inert edit %d: InputEdges %d, want %d", code, ga.InputEdges, want)
	}
	after := content(el)
	for i, c := range p.ran[li] {
		got, want := p.oracle(after, el, c), before[i]
		same := reflect.DeepEqual(got, want)
		if appended {
			got.rows, want.rows = loadPhases(got.rows), loadPhases(want.rows)
			same = near(reflect.ValueOf(got), reflect.ValueOf(want))
		}
		if !same {
			t.Fatalf("%s: inert edit %d changed the outcome\n got %+v\nwant %+v", c.key(), code, got, want)
		}
	}
	p.log = append(p.log, record{op: code, calls: slices.Clone(p.ran[li])})
}
