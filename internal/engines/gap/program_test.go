package gap

import (
	"errors"
	"slices"
	"testing"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/simmachine"
	"github.com/hpcl-repro/epg/internal/xrand"
)

// The stream-program opcodes: the low nibble of an op byte, modulo
// numOps. Operands follow the op byte; the high nibble is a parameter.
const (
	opInsert       = iota // hi: weight (hi+1)/16; then src, dst
	opDelete              // then src, dst
	opDeleteStored        // then an index into the current out-entries
	opFlush               // Mutate with the ops since the last flush
	opPR                  // IncrementalPageRank
	opWCC                 // IncrementalWCC
	opWorkers             // hi: 1, 2 or 4 real workers (hi mod 3)
	opCancel              // refuse the next cancel poll
	opHold                // hold the current epoch
	opBind                // Bind the held graph and build
	opStar                // hi: weight (hi+1)/16; then u: insert u->v for every v not a multiple of 8
	numOps
)

// programN is the vertex count of every program's graph: one chunk of
// every PageRank and WCC region, so a dirty set's size is what moves a
// charge, and more than graph's delta floor, so a star makes a row that
// an overlay keeps as a delta.
const programN = 1024

const (
	kindPR = iota
	kindWCC
)

var errProgramCancel = errors.New("program cancel")

// streamProgram is the state of one FuzzStreamProgram run: the instance
// under test and, per maintainer, the epoch its baseline describes (nil:
// no baseline) and every op flushed since, as one batch.
type streamProgram struct {
	t                  *testing.T
	directed, compress bool
	workers            int
	inst               *Instance
	pending            graph.Batch
	base               [2]*graph.Simple
	since              [2]graph.Batch
	held               *graph.Simple
	cancel, fired      bool
	// deltaEpochs counts the flushes whose epoch held a delta row.
	deltaEpochs int
}

// FuzzStreamProgram runs byte programs of edge inserts and deletes,
// flushes (Mutate), PageRank and WCC maintains, worker counts, a cancel
// at a maintain's first poll, and a Bind back to a held graph. The
// first byte is the graph: bit 0 directed, bit 1 compressed, bits 2-7
// the number of random weighted edges among programN vertices. After
// every maintain that was not cancelled, three things must hold:
//   - its result is bit-equal to a cold instance's kernel on the epoch;
//   - it charges the same regions, second for second, as a shadow
//     instance that maintained on the baseline epoch and was then given
//     every op since as one batch: what a maintain costs is a function
//     of (baseline epoch, current epoch), not of the batches between;
//   - it charges no region at all when the epoch's rows have the
//     baseline's membership.
//
// The seeds are the sequence walls this replaces: seed#0 an edge
// inserted and deleted again before one WCC maintain (a stale add once
// unioned two components); seed#1 a baseline edge deleted and
// re-inserted, which must cost neither maintainer a region; seed#2 and
// seed#3 three self-undoing batches per maintain, undirected and
// directed; seed#4 PageRank maintained on every batch and WCC on every
// second; seed#5 maintains with nothing mutated; seed#6 a directed
// degree-preserving swap (delete 0->1, insert 0->3) under PageRank;
// seed#7 worker counts, a cancel, compression and a bind to an older
// epoch; seed#8 and seed#9, undirected raw and directed compressed, a
// hub row (a star) kept as a delta over three epochs, a sibling of the
// last applied to the held first, and a second star that compacts
// (hubStreamProgram).
func FuzzStreamProgram(f *testing.F) {
	ins := func(u, v byte) []byte { return []byte{opInsert, u, v} }
	del := func(u, v byte) []byte { return []byte{opDelete, u, v} }
	prog := func(g byte, ops ...[]byte) []byte { return slices.Concat(append([][]byte{{g}}, ops...)...) }
	flush, pr, wcc := []byte{opFlush}, []byte{opPR}, []byte{opWCC}
	f.Add(prog(0, ins(0, 1), ins(2, 3), flush, wcc, ins(1, 2), flush, del(1, 2), flush, wcc))
	f.Add(prog(0, ins(0, 1), ins(1, 2), ins(3, 4), flush, pr, wcc, del(1, 2), flush, ins(1, 2), flush, pr, wcc))
	for _, g := range []byte{40 << 2, 40<<2 | 1} {
		f.Add(prog(g, pr, wcc,
			ins(5, 9), []byte{opDeleteStored, 3}, flush, del(5, 9), ins(7, 11), flush, del(7, 11), ins(20, 30), flush, pr, wcc,
			ins(9, 40), []byte{opDeleteStored, 17}, flush, del(9, 40), ins(1, 2), flush, del(1, 2), ins(12, 33), flush, pr, wcc))
	}
	f.Add(prog(30<<2, pr, wcc, ins(3, 8), []byte{opDeleteStored, 5}, flush, pr,
		ins(10, 44), []byte{opDeleteStored, 9}, flush, pr, wcc))
	f.Add(prog(30<<2, pr, wcc, pr, wcc))
	f.Add(prog(1, ins(0, 1), ins(0, 2), flush, pr, del(0, 1), ins(0, 3), flush, pr))
	f.Add(prog(32<<2|3, []byte{opWorkers}, pr, wcc, []byte{opHold}, ins(4, 6), []byte{opDeleteStored, 2}, flush,
		[]byte{opCancel}, pr, wcc, []byte{2<<4 | opWorkers}, ins(6, 4), flush, pr, wcc,
		[]byte{opBind}, pr, wcc, []byte{0x70 | opInsert, 7, 8}, flush, pr, wcc))
	for _, g := range []byte{63 << 2, 63<<2 | 3} {
		f.Add(hubStreamProgram(g))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 || len(prog) > 160 {
			return
		}
		runStreamProgram(t, prog)
	})
}

// hubStreamProgram is a stream program on graph byte g whose hub row
// passes the delta-row rule: a star on vertex 0 (the flush compacts),
// three epochs that change a few of its entries — a delete put back at
// another weight, a reweigh, an entry it lacked that comes and is then
// reweighed, one that comes and goes again — each maintained, the first
// held; a bind back to it and a flush that makes a sibling of the
// third; and a star on vertex 1, which compacts.
func hubStreamProgram(g byte) []byte {
	ins := func(u, v byte) []byte { return []byte{opInsert, u, v} } // weight 1/16
	heavy := func(u, v byte) []byte { return []byte{7<<4 | opInsert, u, v} }
	del := func(u, v byte) []byte { return []byte{opDelete, u, v} }
	star := func(u byte) []byte { return []byte{7<<4 | opStar, u} }
	flush, pr, wcc, hold, bind := []byte{opFlush}, []byte{opPR}, []byte{opWCC}, []byte{opHold}, []byte{opBind}
	return slices.Concat([]byte{g}, star(0), flush, pr, wcc,
		del(0, 5), heavy(0, 8), heavy(0, 16), flush, pr, wcc, hold,
		ins(0, 5), ins(0, 8), flush, pr,
		del(0, 16), ins(0, 3), flush, pr, wcc,
		bind, del(0, 7), heavy(0, 24), flush, pr, wcc,
		star(1), flush, pr, wcc)
}

// The hub programs FuzzStreamProgram seeds with form delta rows: the
// three epochs after the first star and the sibling each hold one.
func TestStreamHubProgramsFormDeltaRows(t *testing.T) {
	for _, g := range []byte{63 << 2, 63<<2 | 3} {
		if p := runStreamProgram(t, hubStreamProgram(g)); p.deltaEpochs < 4 {
			t.Fatalf("graph byte %#x: %d epochs held a delta row; want 4", g, p.deltaEpochs)
		}
	}
}

func runStreamProgram(t *testing.T, prog []byte) *streamProgram {
	p := &streamProgram{t: t, directed: prog[0]&1 != 0, compress: prog[0]&2 != 0, workers: 2}
	el := &graph.EdgeList{NumVertices: programN, Directed: p.directed, Weighted: true}
	r := xrand.New(uint64(prog[0]) + 1)
	for range prog[0] >> 2 {
		el.Edges = append(el.Edges, graph.Edge{Src: graph.VID(r.Intn(programN)), Dst: graph.VID(r.Intn(programN)), W: float32(1 - r.Float64())})
	}
	p.inst = loadWith(t, el, p.workers, p.compress, false)
	p.inst.SetCancel(func() error {
		if p.cancel {
			p.cancel, p.fired = false, true
			return errProgramCancel
		}
		return nil
	})
	ops := prog[1:]
	operand := func(i int) (graph.VID, bool) {
		if i >= len(ops) {
			return 0, false
		}
		return graph.VID(ops[i]) % programN, true
	}
	for i := 0; i < len(ops); i++ {
		op, hi := int(ops[i]&15)%numOps, ops[i]>>4
		switch op {
		case opInsert, opDelete:
			u, ok1 := operand(i + 1)
			v, ok2 := operand(i + 2)
			mu := graph.Mutation{Op: graph.MutDelete, Src: u, Dst: v}
			if op == opInsert {
				mu.Op, mu.W = graph.MutInsert, float32(hi+1)/16
			}
			if ok1 && ok2 {
				p.pending = append(p.pending, mu)
			}
			i += 2
		case opDeleteStored:
			if i+1 < len(ops) {
				if u, v, ok := storedEntry(p.inst.Graph().Out, int(ops[i+1])); ok {
					p.pending = append(p.pending, graph.Mutation{Op: graph.MutDelete, Src: u, Dst: v})
				}
			}
			i++
		case opFlush:
			p.flush()
		case opPR:
			p.maintain(kindPR)
		case opWCC:
			p.maintain(kindWCC)
		case opWorkers:
			p.workers = []int{1, 2, 4}[hi%3]
			p.inst.Machine().SetWorkers(p.workers)
		case opCancel:
			p.cancel = true
		case opHold:
			p.held = p.inst.Graph()
		case opBind:
			if p.held != nil {
				rebind(p.inst, p.held)
				p.base, p.since = [2]*graph.Simple{}, [2]graph.Batch{}
			}
		case opStar:
			if u, ok := operand(i + 1); ok {
				for v := graph.VID(1); v < programN; v++ {
					if v%8 != 0 {
						p.pending = append(p.pending, graph.Mutation{Op: graph.MutInsert, Src: u, Dst: v, W: float32(hi+1) / 16})
					}
				}
			}
			i++
		}
	}
	p.flush()
	p.maintain(kindPR)
	p.maintain(kindWCC)
	return p
}

// storedEntry is the i-th stored out-entry (mod their count), if any.
func storedEntry(c *graph.CSR, i int) (graph.VID, graph.VID, bool) {
	if c.NumEdges() == 0 {
		return 0, 0, false
	}
	u, v := entryAt(c, int64(i)%c.NumEdges())
	return u, v, true
}

func (p *streamProgram) flush() {
	if _, err := p.inst.Mutate(p.pending); err != nil {
		p.t.Fatal(err)
	}
	if p.inst.Graph().Out.DeltaRows() > 0 {
		p.deltaEpochs++
	}
	for k := range p.since {
		p.since[k] = append(p.since[k], p.pending...)
	}
	p.pending = nil
}

// outcome is a maintain's or a kernel's result: one of the two is set.
type outcome struct {
	pr  *engines.PRResult
	wcc *engines.WCCResult
}

// run runs maintainer k on inst, or with cold the full kernel it stands
// in for, and returns its result and the seconds of every region it
// charged, in order.
func run(inst *Instance, k int, cold bool) (o outcome, charged []float64, err error) {
	m := inst.Machine()
	mark, _ := m.Mark()
	switch {
	case k == kindPR && cold:
		o.pr, err = inst.PageRank(engines.DefaultPROpts(), nil)
	case k == kindPR:
		o.pr, err = inst.IncrementalPageRank(engines.DefaultPROpts())
	case cold:
		o.wcc, err = inst.WCC(nil)
	default:
		o.wcc, err = inst.IncrementalWCC()
	}
	return o, seconds(m.Trace()[mark:]), err
}

func seconds(rs []simmachine.Region) []float64 {
	s := make([]float64, len(rs))
	for i, r := range rs {
		s[i] = r.Seconds
	}
	return s
}

func (p *streamProgram) maintain(k int) {
	t := p.t
	ctx := []string{"PageRank", "WCC"}[k]
	p.fired = false
	res, got, err := run(p.inst, k, false)
	if p.fired {
		if err == nil {
			t.Fatalf("%s maintain ignored a cancel at its first poll", ctx)
		}
		return // the baseline stays where it was
	}
	if err != nil {
		t.Fatal(err)
	}
	cur := p.inst.Graph()
	load := func(c *graph.CSR) *Instance {
		return loadWith(t, elFromCSR(c, p.directed), p.workers, p.compress, false)
	}

	want, _, err := run(load(cur.Out), k, true)
	if err != nil {
		t.Fatal(err)
	}
	if k == kindPR {
		ranksEqual(t, res.pr, want.pr, ctx+" maintain vs a cold instance")
	} else {
		labelsEqual(t, res.wcc, want.wcc, ctx+" maintain vs a cold instance")
	}

	var shadow *Instance
	if base := p.base[k]; base == nil {
		shadow = load(cur.Out)
	} else {
		if c, b := cur.Out.Flat(), base.Out.Flat(); slices.Equal(c.Offsets, b.Offsets) && slices.Equal(c.Adj, b.Adj) && len(got) != 0 {
			t.Fatalf("%s maintain charged %d regions on an epoch with the baseline's rows", ctx, len(got))
		}
		shadow = load(base.Out)
		if _, _, err := run(shadow, k, false); err != nil {
			t.Fatal(err)
		}
		if _, err := shadow.Mutate(p.since[k]); err != nil {
			t.Fatal(err)
		}
	}
	if _, shadowGot, err := run(shadow, k, false); err != nil {
		t.Fatal(err)
	} else if !slices.Equal(got, shadowGot) {
		i := 0
		for i < min(len(got), len(shadowGot)) && got[i] == shadowGot[i] {
			i++
		}
		t.Fatalf("%s maintain charged %d regions, %d given every op since its baseline as one batch; they part at region %d", ctx, len(got), len(shadowGot), i)
	}
	p.base[k], p.since[k] = cur, nil
}
