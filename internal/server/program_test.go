package server

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/xrand"
)

// The serve-program opcodes: the low nibble of an op byte, modulo
// numServeOps. The high nibble is a parameter; operands follow.
const (
	opQuery   = iota // hi: kind (bfs, sssp, pr, wcc, khop; mod 5); then src, dst
	opMutate         // hi: batch length; then three bytes per mutation
	opRefresh        // Mutate(ctx, nil)
	opTwo            // two mutates in flight: lengths hi&3 and hi>>2, then their mutations
	opRace           // hi+1 queries racing one mutate: then a query byte, a length (mod 8), the mutations
	opHold           // hold the published generation for the closing sweep
	opDrain          // Drain: every later call must be refused as closed
	opClose          // hi: 4*hi yields before Close; then kind and src, dst: Close racing a Submit, which ends the program
	opStar           // hi: weight (hi+1)/16; then x: mutate inserting x->v for every v not a multiple of 8
	numServeOps
)

// serveN is the vertex count of every program's graph: more than
// graph's delta floor, so a star makes a row that an overlay keeps as a
// delta.
const serveN = 1024

// closeBound is how long a Submit racing Close may take to come back.
const closeBound = 10 * time.Second

// oracle answers as a server started directly on one graph does: what
// a mutated server must answer on the generation of that graph.
type oracle struct {
	ref     *Server
	sketch  *Sketch
	answers map[Query]float64
}

// newOracle starts a fresh server on the edge list of c and builds the
// sketch of c a degraded answer must come from.
func newOracle(t testing.TB, c *graph.CSR, directed bool, landmarks int) *oracle {
	t.Helper()
	el := &graph.EdgeList{NumVertices: c.NumVertices, Weighted: c.Weighted(), Directed: directed}
	for v := range c.NumVertices {
		ws := c.NeighborWeights(graph.VID(v))
		for i, u := range c.Neighbors(graph.VID(v)) {
			if !directed && u < graph.VID(v) {
				continue
			}
			e := graph.Edge{Src: graph.VID(v), Dst: u}
			if ws != nil {
				e.W = ws[i]
			}
			el.Edges = append(el.Edges, e)
		}
	}
	ref, err := NewFromEdgeList(el, Config{Executors: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.Close)
	return &oracle{ref: ref, sketch: BuildSketch(c, landmarks), answers: map[Query]float64{}}
}

// value is the fresh server's answer to q or, degraded, the estimate of
// the sketch rebuilt on its graph.
func (o *oracle) value(t testing.TB, q Query, degraded bool) float64 {
	t.Helper()
	switch {
	case degraded && q.Op == OpBFS:
		return o.sketch.EstimateHops(q.Source, q.Target)
	case degraded:
		return o.sketch.EstimateDist(q.Source, q.Target)
	}
	if v, ok := o.answers[q]; ok {
		return v
	}
	resp := o.ref.Submit(context.Background(), q)
	if resp.Status != StatusOK {
		t.Fatalf("fresh server: %s: status %q %s", q.Op, resp.Status, resp.Err)
	}
	o.answers[q] = resp.Value
	return resp.Value
}

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

// programQuery is query kind k (mod 5) from x to y; a k-hop reaches
// y mod 3 + 1 hops.
func programQuery(k, x, y byte) Query {
	q := Query{Op: []Op{OpBFS, OpSSSP, OpPR, OpWCC, OpKHop}[k%5], Source: graph.VID(x) % serveN, Target: graph.VID(y) % serveN}
	if q.Op == OpKHop {
		q.Target, q.K = 0, int(y%3)+1
	}
	return q
}

// serveProgram is the state of one FuzzServeProgram run: the server
// under test and the model of what it publishes. graphs[g] is the
// out-adjacency of generation g (graphs[0] is unused), extended by every
// acknowledged mutate in the order of the generations they report.
type serveProgram struct {
	t        *testing.T
	s        *Server
	directed bool
	graphs   []*graph.CSR
	oracles  map[uint32]*oracle
	held     []*published
	drained  bool
	admitted int64 // queries the server admitted
	// deltaEpochs counts the maintenances that published an epoch
	// holding a delta row.
	deltaEpochs int
}

// FuzzServeProgram runs byte programs against a live server: queries of
// all five kinds, mutates of small batches (inserts, deletes of present
// and absent edges, duplicate inserts, self-loops, and a delete and
// re-insert that reweighs), refreshes, two mutates in flight, queries
// racing a mutate, holding a published generation, Drain, and Close
// racing a Submit. The first byte is the graph and the server: bit 0
// directed, bit 1 compressed, bits 2-3 1, 2, 4 or 2 executors, bits 4-7
// k, for serveN+8k random weighted edges among serveN vertices. The
// checks:
//   - every answer is OK and equals what a fresh server on the graph of
//     the generation it reports answers (a degraded one, the estimate of
//     a sketch rebuilt on that graph); a query admitted after a mutate
//     was acknowledged reports at least that generation;
//   - each mutate reports the generation after the newest it could have
//     followed, two in flight report the two next ones, and the model
//     applies their batches in that order, with the same op counts;
//   - after every maintenance the published rows are the model's and
//     the published sketch, read through every delta, equals
//     BuildSketch of them bit for bit, and an empty
//     maintenance leaves the maintainer's modeled clock unmoved;
//   - admitted == completed+deadline+errors+panics, and admitted counts
//     the program's queries only; after Drain every call is refused as
//     closed, and a Submit racing Close comes back within closeBound;
//   - after Close, every executor answers every held generation and the
//     newest, oldest to newest and back, exact and degraded.
//
// The seeds are the sequence walls this replaces: seed#0 one mutate and
// every query kind; seed#1 six pairs of mutates in flight on two
// executors; seed#2 pairs in flight on one executor, at least one of
// each pair empty, so that one maintenance can finish before the
// caller of the other reads its reply; seed#3 sixteen queries racing a
// mutate, three times; seed#4 and seed#5 a held generation that later
// mutates pass, raw undirected and compressed directed; seed#6 four
// executors that serve nothing while maintenance runs; seed#7
// refreshes, some racing queries on one executor so that some are
// served degraded; seed#8 self-loops, duplicates, missing deletes and
// reweighs; seed#9 Drain; seed#10 Close racing a Submit; seed#11 and
// seed#12, raw undirected and compressed directed, a hub row (a star)
// kept as a delta over several generations, some held, some mutated two
// in flight or racing queries, and a second star that compacts
// (hubServeProgram).
func FuzzServeProgram(f *testing.F) {
	// serveN+32 edges among serveN vertices; one, two or four executors.
	const one, raw2, comp2, four = 4 << 4, 4<<4 | 1<<2, 4<<4 | 1<<2 | 2, 4<<4 | 2<<2
	q := func(k, x, y byte) []byte { return []byte{k<<4 | opQuery, x, y} }
	ins := func(u, v byte) []byte { return []byte{15 << 3, u, v} } // weight 0.5
	del := func(u, v byte) []byte { return []byte{1, u, v} }
	dup := func(i, w byte) []byte { return []byte{w<<3 | 2, 0, i} } // stored entry i at weight (w+1)/32
	delStored := func(i byte) []byte { return []byte{3, 0, i} }
	mutate := func(ms ...[]byte) []byte {
		return slices.Concat(append([][]byte{{byte(len(ms))<<4 | opMutate}}, ms...)...)
	}
	two := func(a, b [][]byte) []byte {
		return slices.Concat(append(append([][]byte{{byte(len(b))<<6 | byte(len(a))<<4 | opTwo}}, a...), b...)...)
	}
	race := func(n, x byte, ms ...[]byte) []byte {
		return slices.Concat(append([][]byte{{(n-1)<<4 | opRace, x, byte(len(ms))}}, ms...)...)
	}
	refresh, hold, drain := []byte{opRefresh}, []byte{opHold}, []byte{opDrain}
	kinds := slices.Concat(q(0, 0, 9), q(1, 0, 9), q(2, 3, 0), q(3, 0, 9), q(4, 0, 2))
	prog := func(g byte, ops ...[]byte) []byte { return slices.Concat(append([][]byte{{g}}, ops...)...) }

	f.Add(prog(raw2, mutate(delStored(0), ins(1, 30), ins(2, 40)), kinds, hold))
	var pairs [][]byte
	for i := range byte(6) {
		pairs = append(pairs, two([][]byte{ins(0, 10+i), ins(0, 20+i), ins(0, 30+i)}, [][]byte{ins(1, 11+i), ins(1, 21+i), ins(1, 31+i)}),
			q(4, 0, 0), q(4, 1, 0))
	}
	f.Add(prog(raw2, pairs...))
	var refreshes [][]byte
	for i := range byte(6) {
		refreshes = append(refreshes, two([][]byte{ins(2, 10+i)}, nil), two(nil, nil))
	}
	f.Add(prog(one, refreshes...))
	f.Add(prog(raw2, race(16, 1, delStored(5), ins(3, 17), ins(4, 19)), race(16, 2, del(3, 17)),
		race(16, 3, ins(5, 44), delStored(9))))
	for _, g := range []byte{raw2, comp2 | 1} {
		f.Add(prog(g, mutate(ins(0, 47), ins(9, 46)), hold, q(0, 0, 47), mutate(del(0, 47), delStored(7)),
			kinds, mutate(ins(2, 45), delStored(11)), kinds))
	}
	f.Add(prog(four|2, mutate(ins(0, 40), delStored(3)), hold, mutate(del(0, 40), ins(5, 41)), refresh, hold,
		two([][]byte{ins(6, 42)}, [][]byte{delStored(12), delStored(20)})))
	f.Add(prog(one, q(2, 3, 0), refresh, q(2, 3, 0), race(16, 4), race(16, 5), refresh, kinds,
		mutate(dup(2, 0)), refresh, race(16, 6, ins(7, 43)), race(16, 7, del(7, 43)), kinds))
	f.Add(prog(raw2|1, mutate(ins(5, 5), dup(3, 0), delStored(4), dup(4, 31), del(6, 7), ins(8, 9), ins(8, 9)),
		kinds, mutate(dup(0, 31), dup(1, 0), delStored(2), dup(2, 0)), kinds, hold))
	f.Add(prog(raw2, mutate(ins(1, 2)), q(0, 1, 2), drain, q(0, 1, 2), mutate(ins(3, 4)), refresh,
		two([][]byte{ins(5, 6)}, nil), race(4, 7, ins(8, 9)), hold))
	f.Add(prog(four|1, q(0, 0, 9), mutate(ins(0, 9)), hold, []byte{8<<4 | opClose, 0, 9}, mutate(ins(1, 9))))
	for _, g := range []byte{raw2, comp2 | 1} {
		f.Add(hubServeProgram(g))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 || len(prog) > 256 {
			return
		}
		runServeProgram(t, prog)
	})
}

// hubServeProgram is a serve program on graph byte g whose hub row
// passes the delta-row rule: a star on vertex 0 (its maintenance
// compacts), then mutates that delete, reweigh and put back a few of
// its entries and add some it lacks (one deleted again, one reweighed) —
// one alone per generation, two in flight, one racing queries — with
// queries of every kind and held generations between them, and a star
// on vertex 1, which compacts.
func hubServeProgram(g byte) []byte {
	q := func(k, x, y byte) []byte { return []byte{k<<4 | opQuery, x, y} }
	kinds := slices.Concat(q(0, 0, 9), q(1, 0, 9), q(2, 3, 0), q(3, 0, 9), q(4, 0, 2))
	ins := func(u, v byte) []byte { return []byte{0, u, v} }         // weight 1/32: lowers a star entry
	heavy := func(u, v byte) []byte { return []byte{31 << 3, u, v} } // weight 1
	del := func(u, v byte) []byte { return []byte{1, u, v} }
	mutate := func(ms ...[]byte) []byte {
		return slices.Concat(append([][]byte{{byte(len(ms))<<4 | opMutate}}, ms...)...)
	}
	star := func(x byte) []byte { return []byte{7<<4 | opStar, x} }
	hold := []byte{opHold}
	return slices.Concat([]byte{g}, star(0), kinds,
		mutate(del(0, 5), ins(0, 3), heavy(0, 8), heavy(0, 16)), kinds, hold,
		mutate(del(0, 7), ins(0, 5), ins(0, 16)), kinds,
		mutate(del(0, 9), ins(0, 11), del(0, 8)), kinds, hold,
		[]byte{1<<6 | 1<<4 | opTwo}, del(0, 13), ins(0, 9),
		[]byte{7<<4 | opRace, 0, 2}, del(0, 15), heavy(0, 24), kinds, hold,
		star(1), kinds)
}

// The hub programs FuzzServeProgram seeds with form delta rows: at
// least three of their maintenances publish an epoch holding one.
func TestServeHubProgramsFormDeltaRows(t *testing.T) {
	for _, g := range []byte{4<<4 | 1<<2, 4<<4 | 1<<2 | 3} {
		if p := runServeProgram(t, hubServeProgram(g)); p.deltaEpochs < 3 {
			t.Fatalf("graph byte %#x: %d generations held a delta row; want at least 3", g, p.deltaEpochs)
		}
	}
}

func runServeProgram(t *testing.T, prog []byte) *serveProgram {
	g := prog[0]
	directed := g&1 != 0
	el := &graph.EdgeList{NumVertices: serveN, Directed: directed, Weighted: true}
	rng := xrand.New(uint64(g) + 1)
	for range serveN + 8*int(g>>4) {
		el.Edges = append(el.Edges, graph.Edge{Src: graph.VID(rng.Intn(serveN)), Dst: graph.VID(rng.Intn(serveN)), W: float32(1 - rng.Float64())})
	}
	start, err := graph.Homogenize(el)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewFromEdgeList(el, Config{
		Executors: []int{1, 2, 4, 2}[g>>2&3],
		Compress:  g&2 != 0,
		Admit:     AdmitConfig{DegradeWatermark: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	p := &serveProgram{t: t, s: s, directed: directed, graphs: []*graph.CSR{nil, start.Out}, oracles: map[uint32]*oracle{}}
	p.checkPublished("start-up")
	r := &progReader{b: prog, i: 1}
	for r.i < len(r.b) {
		b := r.next()
		op, hi := int(b&15)%numServeOps, b>>4
		switch op {
		case opQuery:
			q := programQuery(hi, r.next(), r.next())
			p.check("query", q, s.Submit(context.Background(), q), p.newest())
		case opMutate:
			p.mutate(p.batch(r, int(hi)))
		case opRefresh:
			p.mutate(nil)
		case opTwo:
			p.two(p.batch(r, int(hi&3)), p.batch(r, int(hi>>2)))
		case opRace:
			x := r.next()
			p.race(int(hi)+1, x, p.batch(r, int(r.next()%8)))
		case opHold:
			p.held = append(p.held, s.pub.Load())
		case opDrain:
			s.Drain()
			p.drained = true
		case opClose:
			x := r.next()
			p.closeRacingSubmit(programQuery(x, x, r.next()), 4*int(hi))
			r.i = len(r.b)
		case opStar:
			x := graph.VID(r.next()) % serveN
			b := graph.Batch{}
			for v := graph.VID(1); v < serveN; v++ {
				if v%8 != 0 {
					b = append(b, graph.Mutation{Op: graph.MutInsert, Src: x, Dst: v, W: float32(hi+1) / 16})
				}
			}
			p.mutate(b)
		}
		m := s.Metrics()
		if m.Completed+m.DeadlineExceeded+m.Errors+m.Panics != m.Admitted || m.Admitted != p.admitted {
			t.Fatalf("ledger after op %d: %+v, the program had %d queries admitted", op, m, p.admitted)
		}
	}
	s.Close()
	p.sweep()
	return p
}

// mutate runs one mutate of b alone; an empty one must leave the
// maintainer's modeled clock where it was.
func (p *serveProgram) mutate(b graph.Batch) {
	t, s := p.t, p.s
	before := s.maint.m.Elapsed()
	got, err := s.Mutate(context.Background(), b)
	if p.refused("mutate", err) {
		return
	}
	p.apply("mutate", b, got)
	if len(b) == 0 && s.maint.m.Elapsed() != before {
		t.Fatalf("an empty maintenance moved the maintainer's clock: %v -> %v", before, s.maint.m.Elapsed())
	}
	p.checkPublished("mutate")
}

// two runs mutates of a and b at once and applies them to the model in
// the order of the generations they report.
func (p *serveProgram) two(a, b graph.Batch) {
	batches := [2]graph.Batch{a, b}
	var got [2]Mutated
	var errs [2]error
	var wg sync.WaitGroup
	for i := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = p.s.Mutate(context.Background(), batches[i])
		}()
	}
	wg.Wait()
	p.refused("first of two mutates", errs[0])
	if p.refused("second of two mutates", errs[1]) {
		return
	}
	first := 0
	if got[1].Gen < got[0].Gen {
		first = 1
	}
	p.apply("first of two mutates in flight", batches[first], got[first])
	p.apply("second of two mutates in flight", batches[1-first], got[1-first])
	p.checkPublished("two mutates")
}

// race runs n queries, their sources and targets drawn from x, at once
// with a mutate of b: each must answer from the generation before the
// mutate or the one it published.
func (p *serveProgram) race(n int, x byte, b graph.Batch) {
	ctx := context.Background()
	qs := make([]Query, n)
	resps := make([]Response, n)
	var got Mutated
	var err error
	var wg sync.WaitGroup
	wg.Add(1 + n)
	go func() {
		defer wg.Done()
		got, err = p.s.Mutate(ctx, b)
	}()
	for i := range qs {
		qs[i] = programQuery(byte(i), x+byte(7*i), x*3+byte(11*i))
		go func() {
			defer wg.Done()
			resps[i] = p.s.Submit(ctx, qs[i])
		}()
	}
	wg.Wait()
	lo := p.newest()
	if !p.refused("mutate racing queries", err) {
		p.apply("mutate racing queries", b, got)
		p.checkPublished("mutate racing queries")
	}
	for i, q := range qs {
		p.check("query racing a mutate", q, resps[i], lo)
	}
}

func (p *serveProgram) newest() uint32 { return uint32(len(p.graphs) - 1) }

func (p *serveProgram) oracle(gen uint32) *oracle {
	o := p.oracles[gen]
	if o == nil {
		o = newOracle(p.t, p.graphs[gen], p.directed, p.s.cfg.Landmarks)
		p.oracles[gen] = o
	}
	return o
}

// batch reads count mutations of three bytes each against the newest
// acknowledged graph: a kind and weight byte k, then x and y. k&3 is
// the kind: 0 inserts x->y (a self-loop when x == y), 1 deletes x->y
// (usually absent), 2 inserts the stored entry #(x<<8|y) again (a
// duplicate, which lowers its weight under the min rule, or reweighs
// either way after a delete of it), 3 deletes that entry. An insert's
// weight is (k>>3+1)/32.
func (p *serveProgram) batch(r *progReader, count int) graph.Batch {
	cur := p.graphs[p.newest()]
	b := graph.Batch{}
	for range count {
		k, x, y := r.next(), r.next(), r.next()
		mu := graph.Mutation{Op: graph.MutInsert, Src: graph.VID(x) % serveN, Dst: graph.VID(y) % serveN, W: float32(k>>3+1) / 32}
		if k&2 != 0 {
			if cur.NumEdges() == 0 {
				continue
			}
			i := (int64(x)<<8 | int64(y)) % cur.NumEdges()
			mu.Src = graph.VID(sort.Search(serveN, func(v int) bool { return cur.Offsets[v+1] > i }))
			mu.Dst = cur.Adj[i]
		}
		if k&1 != 0 {
			mu.Op, mu.W = graph.MutDelete, 0
		}
		b = append(b, mu)
	}
	return b
}

// refused reports whether a mutate was refused, which it must be after
// Drain and must not be before.
func (p *serveProgram) refused(who string, err error) bool {
	p.t.Helper()
	if p.drained != errors.Is(err, ErrClosed) || !p.drained && err != nil {
		p.t.Fatalf("%s (drained %v): %v", who, p.drained, err)
	}
	return p.drained
}

// apply extends the model by the generation a mutate of b reported,
// which must follow the newest, with the op counts it reported.
func (p *serveProgram) apply(who string, b graph.Batch, got Mutated) {
	t := p.t
	t.Helper()
	prev := p.newest()
	if got.Gen != prev+1 {
		t.Fatalf("%s reports generation %d on top of generation %d", who, got.Gen, prev)
	}
	m := graph.NewMutableCSR(p.graphs[prev], p.directed)
	res, err := m.Apply(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != res.Stats {
		t.Fatalf("%s of %v on generation %d: counts %+v, the model %+v", who, b, prev, got.Stats, res.Stats)
	}
	p.graphs = append(p.graphs, m.CSR())
}

// checkPublished requires the published value to be the model's newest
// generation: its number, its rows, and the sketch a rebuild on them
// gives.
func (p *serveProgram) checkPublished(who string) {
	t := p.t
	t.Helper()
	pub, want := p.s.pub.Load(), p.graphs[p.newest()]
	if pub.gen != p.newest() || !reflect.DeepEqual(*pub.epoch.Out().Flat(), *want) {
		t.Fatalf("after %s: generation %d published, the model's generation %d has other rows or number", who, pub.gen, p.newest())
	}
	if d := sketchDiff(pub.sketch, BuildSketch(want, p.s.cfg.Landmarks)); d != "" {
		t.Fatalf("after %s: published sketch differs from a rebuild on generation %d: %s", who, pub.gen, d)
	}
	if pub.epoch.Out().DeltaRows() > 0 {
		p.deltaEpochs++
	}
}

// check holds one Submit answer to the oracle of the generation it
// reports, which must lie between lo and the newest; after Drain the
// query must have been refused as closed.
func (p *serveProgram) check(who string, q Query, resp Response, lo uint32) {
	t := p.t
	t.Helper()
	if p.drained {
		if resp.Status != StatusError || resp.Err != ErrClosed.Error() {
			t.Fatalf("%s after Drain: %+v, want refused as closed", who, resp)
		}
		return
	}
	p.admitted++
	if resp.Status != StatusOK {
		t.Fatalf("%s: %+v", who, resp)
	}
	if resp.Gen < lo || resp.Gen > p.newest() {
		t.Fatalf("%s: %s answered from generation %d, want %d..%d", who, q.Op, resp.Gen, lo, p.newest())
	}
	if want := p.oracle(resp.Gen).value(t, q, resp.Degraded); resp.Value != want {
		t.Fatalf("%s: %+v on generation %d (degraded %v): %v, a fresh server %v", who, q, resp.Gen, resp.Degraded, resp.Value, want)
	}
}

// closeRacingSubmit closes the server, after yielding the processor
// yields times, while a Submit of q is on its way in: the Submit must
// come back, served or refused as closed.
func (p *serveProgram) closeRacingSubmit(q Query, yields int) {
	done := make(chan Response, 1)
	go func() { done <- p.s.Submit(context.Background(), q) }()
	for range yields {
		runtime.Gosched()
	}
	p.s.Close()
	select {
	case resp := <-done:
		p.drained = p.drained || resp.Err == ErrClosed.Error()
		p.check("query racing Close", q, resp, p.newest())
		p.drained = true
	case <-time.After(closeBound):
		p.t.Fatalf("a Submit racing Close did not come back in %v", closeBound)
	}
}

// sweep runs on the closed server, whose executors the test now owns:
// each in turn answers every held generation and the newest, from the
// oldest to the newest and back, so that it binds backwards as well as
// forwards, each query exact and, when degradable, degraded.
func (p *serveProgram) sweep() {
	t := p.t
	held := append(p.held, p.s.pub.Load())
	for i := len(held) - 2; i >= 0; i-- {
		held = append(held, held[i])
	}
	for ei, e := range p.s.execs {
		for _, pub := range held {
			o := p.oracle(pub.gen)
			for i := range byte(100) {
				q := programQuery(i, 7*i, 13*i+5)
				for _, degraded := range []bool{false, true} {
					if degraded && !q.degradable(true) {
						continue
					}
					resp := e.run(context.Background(), q, 0, degraded, pub)
					if want := o.value(t, q, degraded); resp.Status != StatusOK || resp.Gen != pub.gen || resp.Value != want {
						t.Fatalf("executor %d on held generation %d: %+v (degraded %v): %+v, a fresh server %v",
							ei, pub.gen, q, degraded, resp, want)
					}
				}
			}
		}
	}
}
