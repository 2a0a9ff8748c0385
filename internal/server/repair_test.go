package server

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/hpcl-repro/epg/internal/alloctest"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/harness"
	"github.com/hpcl-repro/epg/internal/xrand"
)

// repairGraph builds a test adjacency in the normal form the server
// keeps. weighted overrides the dataset's own choice: weights are
// dropped from a weighted one and drawn for an unweighted one.
func repairGraph(t testing.TB, dataset string, divisor int, seed uint64, weighted bool) (c *graph.CSR, directed bool) {
	t.Helper()
	el, err := harness.ResolveDataset(dataset, harness.DatasetOptions{Seed: seed, RealWorldDivisor: divisor})
	if err != nil {
		t.Fatal(err)
	}
	if weighted && !el.Weighted {
		rng := xrand.New(seed ^ 0x77)
		for i := range el.Edges {
			el.Edges[i].W = 1 - rng.Float32()
		}
	}
	el.Weighted = weighted
	return graph.BuildCSR(el, graph.BuildOptions{
		Symmetrize:    !el.Directed,
		DropSelfLoops: true,
		Dedup:         true,
		Sort:          true,
	}), el.Directed
}

// repairProgram is the model the repair is checked against: the current
// adjacency (an epoch of (*graph.CSR).Apply, as the server's are, so
// overlays and compactions both reach Repair), the sketch Repair has
// carried to it batch by batch through one reused repairer, and the
// generator's memory of what it did last.
type repairProgram struct {
	t        testing.TB
	rng      *xrand.RNG
	directed bool
	k        int
	cur      *graph.CSR
	sketch   *Sketch
	r        repairer
	last     graph.Batch // the previous step's batch, for the undo step
	later    graph.Batch // ops a step left for the next one (a reconnect)

	phaseASteps int // steps phase B alone would have got wrong
	sharedVecs  int // vectors handed on unchanged by a batch that changed something
	deltaVecs   int // vectors that kept the old base under a new delta
	compactions int // vectors compacted into a fresh base
}

// weight draws an insert weight: mostly uniform, but often enough one
// of a few fixed values that equal-length paths tie, and float32
// subnormals that a float64 distance absorbs without trace.
func (p *repairProgram) weight() float32 {
	switch p.rng.Intn(8) {
	case 0:
		return 0.5
	case 1:
		return 0.25
	case 2:
		return 1
	case 3:
		return math.SmallestNonzeroFloat32
	case 4:
		return 1e-40
	}
	return 1 - p.rng.Float32()
}

func (p *repairProgram) vertex() graph.VID { return graph.VID(p.rng.Intn(p.cur.NumVertices)) }

// edge draws a stored entry (u, v); ok is false on an empty graph.
func (p *repairProgram) edge() (u, v graph.VID, ok bool) {
	m := int(p.cur.NumEdges())
	if m == 0 {
		return 0, 0, false
	}
	idx := int64(p.rng.Intn(m))
	for ; idx >= p.cur.Degree(u); u++ {
		idx -= p.cur.Degree(u)
	}
	return u, p.cur.Neighbors(u)[idx], true
}

func del(u, v graph.VID) graph.Mutation { return graph.Mutation{Op: graph.MutDelete, Src: u, Dst: v} }

func (p *repairProgram) ins(u, v graph.VID) graph.Mutation {
	return graph.Mutation{Op: graph.MutInsert, Src: u, Dst: v, W: p.weight()}
}

// batch builds the step's batch: the low nibble of b picks what kind,
// the high nibble how much of it.
func (p *repairProgram) batch(b byte) graph.Batch {
	size := 1 + int(b>>4)
	batch := p.later
	p.later = nil
	switch b & 0xf {
	case 0: // nothing at all (or only what the last step left)
	case 1, 2: // random inserts
		for i := 0; i < 2*size; i++ {
			batch = append(batch, p.ins(p.vertex(), p.vertex()))
		}
	case 3, 4: // deletes of stored edges
		for i := 0; i < 2*size; i++ {
			if u, v, ok := p.edge(); ok {
				batch = append(batch, del(u, v))
			}
		}
	case 5: // deletes at a landmark: the edges most shortest paths leave by
		if ls := p.sketch.landmarks; len(ls) > 0 {
			l := ls[p.rng.Intn(len(ls))]
			for _, v := range p.cur.Neighbors(l) {
				if p.rng.Intn(16) < size {
					batch = append(batch, del(l, v))
				}
			}
		}
	case 6: // undo the previous step, re-inserting at another weight
		for i := len(p.last) - 1; i >= 0; i-- {
			mu := p.last[i]
			if mu.Op == graph.MutInsert {
				batch = append(batch, del(mu.Src, mu.Dst))
			} else {
				batch = append(batch, p.ins(mu.Src, mu.Dst))
			}
		}
	case 7: // one pair touched three times inside the batch
		for i := 0; i < size; i++ {
			u, v := p.vertex(), p.vertex()
			batch = append(batch, p.ins(u, v), del(u, v), p.ins(u, v))
			if u, v, ok := p.edge(); ok { // a stored edge: the weight may rise
				batch = append(batch, del(u, v), p.ins(u, v))
			}
		}
	case 8: // duplicate inserts: the weight only ever falls
		for i := 0; i < 2*size; i++ {
			if u, v, ok := p.edge(); ok {
				batch = append(batch, p.ins(u, v))
			}
		}
	case 9, 10: // cut a vertex off; reconnect it now (9) or next step (10)
		u := p.vertex()
		for _, v := range p.cur.Neighbors(u) {
			batch = append(batch, del(u, v))
		}
		back := graph.Batch{p.ins(u, p.vertex()), p.ins(p.vertex(), u)}
		if b&0xf == 9 {
			batch = append(batch, back...)
		} else {
			p.later = back
		}
	case 11, 12: // lift a vertex into the top-k
		if ls := p.sketch.landmarks; len(ls) > 0 {
			u := p.vertex()
			need := p.cur.Degree(ls[len(ls)-1-p.rng.Intn(len(ls))]) + 1 - p.cur.Degree(u)
			for i := int64(0); i < min(need, int64(p.cur.NumVertices)); i++ {
				batch = append(batch, p.ins(u, p.vertex()))
			}
		}
	default: // drop a landmark down or out of the top-k
		if ls := p.sketch.landmarks; len(ls) > 0 {
			l := ls[p.rng.Intn(len(ls))]
			for i, v := range p.cur.Neighbors(l) {
				if i%2 == 0 || size > 8 {
					batch = append(batch, del(l, v))
				}
			}
		}
	}
	return batch
}

// step applies one batch and holds Repair to its contract: bit-equal to
// a rebuild, sharing every vector it did not have to touch, and never
// writing the sketch readers may still hold, bases and deltas alike. It
// counts the vectors shared, kept under a delta and compacted, and runs
// the repair with phase A cut out, counting the step if that got it
// wrong.
func (p *repairProgram) step(i int, b byte) {
	t := p.t
	t.Helper()
	batch := p.batch(b)
	post, _, err := p.cur.Apply(batch, p.directed)
	if err != nil {
		t.Fatalf("step %d (kind %d): %v", i, b&0xf, err)
	}
	pre := p.cur
	in := post
	if p.directed {
		in = graph.Transpose(post.Flat(), 1)
	}
	old := p.sketch
	oldRaw := rawCopy(old)

	got, want := old.Repair(&p.r, pre, post, in), BuildSketch(post, p.k)
	where := fmt.Sprintf("step %d (kind %d, %d ops)", i, b&0xf, len(batch))
	if d := sketchDiff(got, want); d != "" {
		t.Fatalf("%s: %s", where, d)
	}
	if !reflect.DeepEqual(old, oldRaw) {
		t.Fatalf("%s: Repair wrote the sketch it was called on", where)
	}
	if got == old {
		t.Fatalf("%s: Repair returned its receiver", where)
	}
	// Sharing is real: a batch that changes nothing leaves every vector
	// the old one, and any other batch is counted.
	for li, l := range got.landmarks {
		from := slices.Index(old.landmarks, l)
		if from < 0 {
			continue
		}
		n := 0
		if shared(p, old.hops[from], got.hops[li]) {
			n++
		}
		if got.dist != nil && shared(p, old.dist[from], got.dist[li]) {
			n++
		}
		if pre != post {
			p.sharedVecs += n
		} else if want := 1 + len(got.dist)/len(got.landmarks); n != want {
			t.Fatalf("%s: nothing changed, yet only %d of landmark %d's %d vectors are the old ones", where, n, l, want)
		}
	}

	// The same repair with phase A cut out: phase B from no affected set.
	r := &repairer{}
	r.begin(pre, post, in)
	dense := want.dense()
	withoutPhaseA := false
	for li, l := range want.landmarks {
		from := slices.Index(old.landmarks, l)
		if from < 0 {
			continue
		}
		r.next()
		hops := &vec[int32]{r: r, d: old.hops[from].dense(), unreached: -1}
		hops.resettle(nil)
		if firstDiff(hops.d, dense.hops[li]) != "" {
			withoutPhaseA = true
		}
		if old.dist != nil {
			r.next()
			dist := &vec[float64]{r: r, d: old.dist[from].dense(), unreached: math.Inf(1), weighted: true}
			dist.resettle(nil)
			if firstDiff(dist.d, dense.dist[li]) != "" {
				withoutPhaseA = true
			}
		}
	}

	if withoutPhaseA {
		p.phaseASteps++
	}
	p.cur, p.sketch, p.last = post, got, batch
}

// shared reports whether got is old itself, and otherwise counts it as
// kept on old's base under a new delta or compacted.
func shared[D int32 | float64](p *repairProgram, old, got *sketchVec[D]) bool {
	switch {
	case got == old:
		return true
	case &got.base[0] == &old.base[0]:
		p.deltaVecs++
	default:
		p.compactions++
	}
	return false
}

// denseSketch is a sketch with every vector materialized: what its
// estimates read, whatever its vectors share.
type denseSketch struct {
	landmarks []graph.VID
	hops      [][]int32
	dist      [][]float64
}

func (x *sketchVec[D]) dense() []D {
	d := make([]D, len(x.base))
	x.materialize(d)
	return d
}

func (s *Sketch) dense() denseSketch {
	out := denseSketch{landmarks: s.landmarks}
	for _, x := range s.hops {
		out.hops = append(out.hops, x.dense())
	}
	for _, x := range s.dist {
		out.dist = append(out.dist, x.dense())
	}
	return out
}

// sketchDiff compares two sketches' materialized vectors bit for bit:
// "" when they are equal, else the first difference.
func sketchDiff(got, want *Sketch) string {
	g, w := got.dense(), want.dense()
	if !slices.Equal(g.landmarks, w.landmarks) {
		return fmt.Sprintf("landmarks %v, rebuild %v", g.landmarks, w.landmarks)
	}
	if (g.dist == nil) != (w.dist == nil) {
		return fmt.Sprintf("dist present %t, rebuild %t", g.dist != nil, w.dist != nil)
	}
	for li, l := range w.landmarks {
		if d := firstDiff(g.hops[li], w.hops[li]); d != "" {
			return fmt.Sprintf("hops of landmark %d differ from the rebuild's: %s", l, d)
		}
		if w.dist != nil {
			if d := firstDiff(g.dist[li], w.dist[li]); d != "" {
				return fmt.Sprintf("dist of landmark %d differ from the rebuild's: %s", l, d)
			}
		}
	}
	return ""
}

// rawCopy is a deep copy of s as stored: bases, indexes and values.
func rawCopy(s *Sketch) *Sketch {
	out := &Sketch{landmarks: slices.Clone(s.landmarks)}
	for _, x := range s.hops {
		out.hops = append(out.hops, &sketchVec[int32]{base: slices.Clone(x.base), idx: slices.Clone(x.idx), val: slices.Clone(x.val)})
	}
	for _, x := range s.dist {
		out.dist = append(out.dist, &sketchVec[float64]{base: slices.Clone(x.base), idx: slices.Clone(x.idx), val: slices.Clone(x.val)})
	}
	return out
}

// firstDiff compares bit for bit: a float64 by its bits.
func firstDiff[D int32 | float64](got, want []D) string {
	if len(got) != len(want) {
		return fmt.Sprintf("lengths %d, rebuilt %d", len(got), len(want))
	}
	for v := range want {
		if !sameBits(got[v], want[v]) {
			return fmt.Sprintf("vertex %d: repaired %v, rebuilt %v", v, got[v], want[v])
		}
	}
	return ""
}

func sameBits[D int32 | float64](a, b D) bool {
	if f, ok := any(a).(float64); ok {
		return math.Float64bits(f) == math.Float64bits(any(b).(float64))
	}
	return a == b
}

// runRepairProgram runs script, one batch per byte, from a fresh sketch
// of c.
func runRepairProgram(t testing.TB, c *graph.CSR, directed bool, k int, seed uint64, script []byte) *repairProgram {
	t.Helper()
	p := &repairProgram{t: t, rng: xrand.New(seed), directed: directed, k: k, cur: c, sketch: BuildSketch(c, k)}
	for i, b := range script {
		p.step(i, b)
	}
	return p
}

// TestSketchRepairEqualsRebuild is the repair's contract: after every
// batch of a random program — inserts, deletes, deletes at a landmark,
// undone and re-touched edges, weights lowered and raised, ties and
// absorbed subnormals, pieces cut off and reconnected, landmarks
// promoted and demoted, nothing at all — the repaired sketch equals a
// rebuild on the post-batch adjacency, landmarks, hops and dist, bit for
// bit, read through every vector's delta.
func TestSketchRepairEqualsRebuild(t *testing.T) {
	for _, g := range []struct {
		dataset  string
		divisor  int
		weighted bool
		steps    int
	}{
		{"kron-7", 0, true, 64},
		{"kron-7", 0, false, 48},
		{"kron-9", 0, true, 48},
		{"kron-9", 0, false, 32},
		{"kron-11", 0, true, 24},
		{"cit-Patents", 4000, false, 48},
		{"cit-Patents", 4000, true, 48},
	} {
		name := fmt.Sprintf("%s/weighted=%t", g.dataset, g.weighted)
		t.Run(name, func(t *testing.T) {
			c, directed := repairGraph(t, g.dataset, g.divisor, 5, g.weighted)
			rng := xrand.New(xrand.Mix64(uint64(len(name)) ^ 0x5e7c))
			script := make([]byte, g.steps)
			for i := range script {
				script[i] = byte(rng.Uint32())
			}
			p := runRepairProgram(t, c, directed, 8, 11, script)
			// The test testing itself: a program on which phase A never
			// mattered would pass with phase A deleted, and one that
			// rewrote every vector every time would never see sharing.
			if p.phaseASteps == 0 {
				t.Errorf("phase B alone repaired all %d steps: the program never exercised phase A", g.steps)
			}
			if p.sharedVecs == 0 {
				t.Errorf("no batch left any vector untouched: sharing was never exercised")
			}
			if p.deltaVecs == 0 || p.compactions == 0 {
				t.Errorf("%d vectors kept their base under a delta, %d compacted: both paths must run", p.deltaVecs, p.compactions)
			}
			t.Logf("%d vertices, %d steps: %d needed phase A; of the vectors, %d shared across a change, %d under a delta, %d compacted",
				c.NumVertices, g.steps, p.phaseASteps, p.sharedVecs, p.deltaVecs, p.compactions)
		})
	}
}

// The repair's stamps survive the epoch counter wrapping: stale stamps
// equal to a re-issued epoch must read as neither candidate, affected
// nor written, so the two repairs across the wrap still equal a rebuild.
func TestSketchRepairStampWrapAround(t *testing.T) {
	c, directed := repairGraph(t, "kron-9", 0, 5, true)
	p := runRepairProgram(t, c, directed, 8, 11, []byte{0x31}) // size the stamps
	p.r.epoch = math.MaxUint32 - 4
	for v := range p.r.mark {
		p.r.mark[v] = uint32(v%4) + 1 // the epochs a wrapped counter hands out next
		p.r.wrote[v] = uint32(v%4) + 1
	}
	p.step(1, 0x35)
	p.step(2, 0x23)
	if p.r.epoch == 0 || p.r.epoch > 2*2*2*uint32(p.k) { // two repairs, 2k vectors, two stamps each
		t.Fatalf("epoch did not restart after the wrap: %d", p.r.epoch)
	}
}

// A warm repair allocates what its batch moves, not whole vectors: on a
// weighted undirected kron-12 with 8 landmarks, a 64-op batch through
// the reused repairer costs under a quarter of one whole-sketch clone,
// k·n·12 B (a hop and a distance entry per landmark and vertex).
func TestSketchRepairAllocFollowsChanges(t *testing.T) {
	const k = 8
	c, directed := repairGraph(t, "kron-12", 0, 5, true)
	p := &repairProgram{t: t, rng: xrand.New(7), directed: directed, k: k, cur: c}
	var batch graph.Batch
	for len(batch) < 64 {
		batch = append(batch, p.ins(p.vertex(), p.vertex()))
		if u, v, ok := p.edge(); ok {
			batch = append(batch, del(u, v))
		}
	}
	post, _, err := c.Apply(batch, directed)
	if err != nil {
		t.Fatal(err)
	}
	old := BuildSketch(c, k)
	var r repairer
	got := old.Repair(&r, c, post, post)
	if d := sketchDiff(got, BuildSketch(post, k)); d != "" {
		t.Fatal(d)
	}
	for li, x := range got.dist { // the wall must measure the delta path
		if x == old.dist[li] || len(x.idx) == 0 || &x.base[0] != &old.dist[li].base[0] {
			t.Fatalf("landmark %d's distances were not kept under a delta: the batch does not exercise it", got.landmarks[li])
		}
	}
	per := alloctest.FewestBytes(8, func() { old.Repair(&r, c, post, post) })
	whole := uint64(k * c.NumVertices * 12)
	t.Logf("a warm %d-op repair allocates %d B; one whole-sketch clone is %d B", len(batch), per, whole)
	if per >= whole/4 {
		t.Fatalf("a warm %d-op repair allocates %d B, a quarter of a whole-sketch clone is %d B", len(batch), per, whole/4)
	}
}

// FuzzSketchRepair is TestSketchRepairEqualsRebuild with the fuzzer
// writing the program: one batch per script byte on a small graph.
func FuzzSketchRepair(f *testing.F) {
	f.Add(uint64(1), true, false, []byte{0x11, 0x33, 0x05, 0x06, 0x17, 0x28, 0x0a, 0x00, 0x4b, 0xfd})
	f.Add(uint64(2), false, false, []byte{0x35, 0x35, 0x06, 0x09, 0x2c, 0x2c, 0x9f})
	f.Add(uint64(3), true, true, []byte{0x21, 0x43, 0x07, 0x08, 0x06, 0x0a, 0x01, 0x1b, 0x0e})
	f.Add(uint64(4), false, true, []byte{0x13, 0x25, 0x06, 0x1c, 0xfe, 0x00})
	f.Fuzz(func(t *testing.T, seed uint64, weighted, directed bool, script []byte) {
		if len(script) > 24 {
			script = script[:24]
		}
		dataset, divisor := "kron-7", 0
		if directed {
			dataset, divisor = "cit-Patents", 1<<20 // the generator's 128-vertex floor
		}
		c, dir := repairGraph(t, dataset, divisor, seed%4, weighted)
		runRepairProgram(t, c, dir, 4, seed, script)
	})
}

// A warm reader of an epoch's delta rows merges them into its own
// buffer: on an overlay holding hub rows as deltas, a k-hop query and a
// sketch repair allocate no more than on the same epoch compacted (the
// same graph flat). The batch deletes the edges among the landmarks,
// which leaves each landmark's distance in the others' vectors
// unattained, so the repair reads the landmarks' rows, deltas all; and
// it inserts random edges. The k-hop queries start at the landmarks;
// the repair diffs the flat epoch against each epoch.
func TestWarmReadsOnDeltaRowsAllocateAsOnFlat(t *testing.T) {
	const k = 8
	c, directed := repairGraph(t, "kron-13", 0, 5, true)
	p := &repairProgram{t: t, rng: xrand.New(7), directed: directed, k: k, cur: c}
	var batch graph.Batch
	landmarks := topDegree(c, k)
	for _, u := range landmarks {
		for _, v := range landmarks {
			if u < v && c.HasEdge(u, v) {
				batch = append(batch, del(u, v))
			}
		}
	}
	for len(batch) < 64 {
		batch = append(batch, p.ins(p.vertex(), p.vertex()))
	}
	post, _, err := c.Apply(batch, directed)
	if err != nil {
		t.Fatal(err)
	}
	flat := post.Flat()
	if post.DeltaRows() == 0 || flat == post {
		t.Fatal("the batch left no overlay with delta rows; the wall measures one")
	}
	e, _ := testExecutor(t, "kron-13")
	old := BuildSketch(c, k)
	var r repairer
	noDeadline := func() error { return nil }
	for _, read := range []struct {
		name string
		run  func(epoch *graph.CSR, i int)
	}{
		{"k-hop", func(epoch *graph.CSR, i int) {
			if _, err := e.khop(epoch, landmarks[i%k], 2, noDeadline); err != nil {
				t.Fatal(err)
			}
		}},
		{"repair", func(epoch *graph.CSR, _ int) { old.Repair(&r, c, epoch, epoch) }},
	} {
		per := func(epoch *graph.CSR) uint64 {
			i := 0
			return alloctest.FewestBytes(8, func() { read.run(epoch, i); i++ })
		}
		onDelta, onFlat := per(post), per(flat)
		t.Logf("warm %s: %d B on %d delta rows, %d B flat", read.name, onDelta, post.DeltaRows(), onFlat)
		if onDelta > onFlat {
			t.Fatalf("a warm %s allocates %d B on delta rows, %d B on the same epoch flat", read.name, onDelta, onFlat)
		}
	}
}
