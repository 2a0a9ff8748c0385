package graph

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"github.com/hpcl-repro/epg/internal/parallel"
)

// epochChain applies every flush a MutableCSR gets to a chain of its
// own, never read flat between two applies, and can branch: apply a
// batch to the parent of the current epoch, a sibling of it. The
// MutableCSR applies each batch to its flattened read, the chain to an
// overlay, so their ApplyResults must be equal: a result does not depend
// on the parent's row form. It keeps every epoch it made beside the
// model's rebuild of it and re-checks them all after each Apply, so an
// Apply that wrote into memory an earlier epoch or a sibling reads, or
// a carried-forward row gone stale, shows as an epoch drifting from its
// rebuild.
type epochChain struct {
	t        *testing.T
	directed bool
	cur      *CSR
	// parent is the epoch cur was applied to, parentEdges the model's
	// edge set on it.
	parent      *CSR
	parentEdges map[uint64]float32
	epochs      []*CSR // every epoch made, siblings included
	wants       []*CSR // the model's rebuild of each
	// overlays and flats count the epochs made of each kind.
	overlays, flats int
}

func newEpochChain(t *testing.T, c *CSR, directed bool) *epochChain {
	return &epochChain{t: t, directed: directed, cur: c}
}

// flush applies batch to the current epoch. want is what MutableCSR.Apply
// reported for it on the flattened read of the same graph, before the
// model's edge set ahead of it, model the model after it and rebuilt
// its rebuild, the independent oracle.
func (ch *epochChain) flush(batch Batch, want *ApplyResult, before map[uint64]float32, model *mutModel, rebuilt *CSR) {
	t := ch.t
	t.Helper()
	pre := ch.cur
	next, res, err := pre.Apply(batch, ch.directed)
	if err != nil {
		t.Fatalf("(*CSR).Apply: %v", err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("Apply on the chain's epoch reports %+v, on the MutableCSR's flattened read %+v: the result depends on the parent's row form", res, want)
	}
	checkNetChange(t, res, pre, next, before, model)
	ch.parent, ch.parentEdges, ch.cur = pre, before, next
	ch.record(pre, next, rebuilt)
}

// branch applies batch to the current epoch's parent, leaving the
// current epoch where it is.
func (ch *epochChain) branch(batch Batch) {
	t := ch.t
	t.Helper()
	if ch.parent == nil {
		return
	}
	model := &mutModel{n: ch.parent.NumVertices, directed: ch.directed, weighted: ch.parent.Weighted(), edges: maps.Clone(ch.parentEdges)}
	sib, res, err := ch.parent.Apply(batch, ch.directed)
	if err != nil {
		t.Fatalf("(*CSR).Apply on the parent: %v", err)
	}
	model.apply(batch)
	checkNetChange(t, res, ch.parent, sib, ch.parentEdges, model)
	ch.record(ch.parent, sib, model.rebuild())
}

// record keeps a new epoch and re-checks every epoch made so far.
func (ch *epochChain) record(pre, c, want *CSR) {
	ch.t.Helper()
	switch {
	case c == pre:
	case c.patch != nil:
		ch.overlays++
	default:
		ch.flats++
	}
	ch.epochs, ch.wants = append(ch.epochs, c), append(ch.wants, want)
	for i, e := range ch.epochs {
		checkEpoch(ch.t, e, ch.wants[i], i)
	}
}

// checkEpoch holds every accessor of c to want, a flat rebuild of the
// same graph, and c.Flat() to want byte for byte.
func checkEpoch(t *testing.T, c, want *CSR, idx int) {
	t.Helper()
	n := want.NumVertices
	if c.NumVertices != n || c.NumEdges() != want.NumEdges() || c.Weighted() != want.Weighted() {
		t.Fatalf("epoch %d: %d vertices, %d edges, weighted %v; the rebuild %d, %d, %v",
			idx, c.NumVertices, c.NumEdges(), c.Weighted(), n, want.NumEdges(), want.Weighted())
	}
	front := parallel.NewBitmap(n)
	for v := 0; v < n; v += 3 {
		front.Set(v)
	}
	for v := range VID(n) {
		adj, ws := c.WeightedRow(v)
		row, nb := c.Row(v, nil)
		u, scanned, eb, ok := c.FirstIn(v, front)
		wu, wscanned, _, wok := want.FirstIn(v, front)
		switch {
		case c.Degree(v) != want.Degree(v):
			t.Fatalf("epoch %d: Degree(%d) = %d, the rebuild %d", idx, v, c.Degree(v), want.Degree(v))
		case !slices.Equal(c.Neighbors(v), want.Neighbors(v)) || !slices.Equal(adj, want.Neighbors(v)) || !slices.Equal(row, want.Neighbors(v)) || nb != 0:
			t.Fatalf("epoch %d: row %d = %v, the rebuild %v", idx, v, c.Neighbors(v), want.Neighbors(v))
		case !slices.Equal(c.NeighborWeights(v), want.NeighborWeights(v)) || !slices.Equal(ws, want.NeighborWeights(v)) || (ws == nil) != (want.NeighborWeights(v) == nil):
			t.Fatalf("epoch %d: weights of row %d = %v, the rebuild %v", idx, v, c.NeighborWeights(v), want.NeighborWeights(v))
		case u != wu || scanned != wscanned || eb != 0 || ok != wok:
			t.Fatalf("epoch %d: FirstIn(%d) = %d %d %v, the rebuild %d %d %v", idx, v, u, scanned, ok, wu, wscanned, wok)
		}
	}
	if !csrEqual(c.Flat(), want) {
		t.Fatalf("epoch %d: Flat() differs from the rebuild", idx)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("epoch %d: %v", idx, err)
	}
}

// An overlay epoch hides the flat arrays: code reading them on an
// epoch fails loudly instead of reading the base.
func TestOverlayHidesRawArrays(t *testing.T) {
	el := randomEdgeList(7, 64, 512, true)
	c := buildNormalized(el)
	next, _, err := c.Apply(Batch{{Op: MutInsert, Src: 1, Dst: 2, W: 0.5}, {Op: MutDelete, Src: 3, Dst: c.Neighbors(3)[0]}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if next.patch == nil {
		t.Fatal("a two-op batch on 64 vertices compacted; want an overlay")
	}
	if next.Offsets != nil || next.Adj != nil || next.Weights != nil {
		t.Fatal("an overlay epoch exposes raw arrays")
	}
	if f := next.Flat(); f.patch != nil || f.Offsets == nil || !f.Weighted() {
		t.Fatal("Flat() of an overlay is not a flat weighted CSR")
	}
	if c.Flat() != c {
		t.Fatal("Flat() of a flat CSR is not the CSR itself")
	}
}
