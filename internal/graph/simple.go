package graph

import (
	"math"
	"sync"

	"github.com/hpcl-repro/epg/internal/xrand"
)

// Simple is the homogenized graph of one run: the simple graph (no
// self-loops, no parallel edges, sorted rows, both orientations of an
// undirected edge) every engine, the root selection and the cluster
// owner table are built from. It is built by Homogenize from an edge
// list, or by Apply from the graph before a batch: a streaming engine's
// epoch, the graph the harness draws the next batch from and the stream
// recompute binds. It is shared: nothing that receives one may write to
// Out or In — engines alias the arrays, and a mutation makes a new
// graph whose epochs (CSR.Apply's overlays) share every row it did not
// rewrite rather than writing one.
type Simple struct {
	NumVertices int
	Directed    bool
	Weighted    bool
	// InputEdges is the length of the edge list the graph came from,
	// the size the modeled file-read and construction charges scale by.
	// After Apply it is the length of the normalized list of the new
	// graph's edges, the list a cold Homogenize of it would read.
	InputEdges int
	Out        *CSR
	// In is the sorted transpose of a directed graph; nil when the
	// graph is undirected and Out is its own transpose.
	In *CSR

	derived derived
}

// Homogenize validates el and builds its Simple.
func Homogenize(el *EdgeList) (*Simple, error) {
	if err := el.Validate(); err != nil {
		return nil, err
	}
	g := &Simple{
		NumVertices: el.NumVertices,
		Directed:    el.Directed,
		Weighted:    el.Weighted,
		InputEdges:  len(el.Edges),
		Out: BuildCSR(el, BuildOptions{
			Symmetrize:    !el.Directed,
			DropSelfLoops: true,
			Dedup:         true,
			Sort:          true,
		}),
	}
	if el.Directed {
		// Transpose scatters rows in ascending source order, so the
		// in-rows of a sorted, duplicate-free Out come out sorted.
		g.In = Transpose(g.Out, 0)
	}
	return g, nil
}

// Apply returns the graph after batch, with what each CSR.Apply did:
// out for Out, advanced by the batch, and in for In, advanced by the
// reversed batch when the graph is directed (nil when it is not), so
// the transpose tracks the same edges. Every row the batch left clean
// is shared with g, which is never written, and the new graph derives
// its own structures (Derive) afresh. Its InputEdges counts one entry
// per out-edge, or per undirected pair, as the normalized list would.
// A batch that fails validation leaves no graph.
func (g *Simple) Apply(batch Batch) (next *Simple, out, in *ApplyResult, err error) {
	nOut, out, err := g.Out.Apply(batch, g.Directed)
	if err != nil {
		return nil, nil, nil, err
	}
	next = &Simple{NumVertices: g.NumVertices, Directed: g.Directed, Weighted: g.Weighted,
		InputEdges: int(nOut.NumEdges()), Out: nOut}
	if !g.Directed {
		next.InputEdges /= 2 // both orientations are stored, one is listed
		return next, out, nil, nil
	}
	// The reversed batch validates as the forward one did, so this
	// cannot fail; the guard keeps a torn pair from escaping.
	if next.In, in, err = g.In.Apply(batch.Reversed(), true); err != nil {
		return nil, nil, nil, err
	}
	return next, out, in, nil
}

// shared is HomogenizeShared's memo: the last edge list it was called
// on, that list's fingerprint then, and its graph.
var shared struct {
	mu sync.Mutex
	el *EdgeList
	fp uint64
	g  *Simple
}

// HomogenizeShared is Homogenize with one memo for the whole program:
// when el is the edge list of the last call and its content has not
// changed since, it returns that call's graph, else it builds a new one
// and keeps it in its place. Every engine load from an edge list
// (engines.Engine.Load) and every harness Run and Sweep go through it,
// so the instances of one list share one graph and, through it, what
// the engines derived from it (Derive). The memo is keyed by el's
// identity and checked on every call against a fingerprint of its
// vertex count, flags and every edge, so a list edited in place between
// calls is homogenized again (editing it during a call is a race). The
// memo is the process's, not a caller's: it keeps the last list and its
// graph, with what was derived from it, alive until a call on another
// list or the end of the process, so one graph's worth of memory
// outlives the last instance that read it. Concurrent callers are serialized; those on one list wait for a
// single build. A caller whose graph must be its own, one nothing under
// test can read or write — a reference oracle — calls Homogenize.
func HomogenizeShared(el *EdgeList) (*Simple, error) {
	fp := fingerprint(el)
	shared.mu.Lock()
	defer shared.mu.Unlock()
	if shared.el == el && shared.fp == fp {
		return shared.g, nil
	}
	g, err := Homogenize(el)
	if err != nil {
		return nil, err
	}
	shared.el, shared.fp, shared.g = el, fp, g
	return g, nil
}

// Memoized is the graph HomogenizeShared would return for el without
// building one, nil when it would build. It builds and keeps nothing,
// so a test can check that a caller went through the memo and left el's
// graph in it.
func Memoized(el *EdgeList) *Simple {
	fp := fingerprint(el)
	shared.mu.Lock()
	defer shared.mu.Unlock()
	if shared.el == el && shared.fp == fp {
		return shared.g
	}
	return nil
}

// fingerprint hashes el's vertex count, flags and every edge without
// allocating. Each step xors one word into the state and mixes it with
// a bijection (xrand.Mix64), so two lists of one length that differ in
// a single edge never collide.
func fingerprint(el *EdgeList) uint64 {
	shape := uint64(el.NumVertices) << 2
	if el.Directed {
		shape |= 1
	}
	if el.Weighted {
		shape |= 2
	}
	h := xrand.Mix64(xrand.Mix64(uint64(len(el.Edges))) ^ shape)
	for _, e := range el.Edges {
		h = xrand.Mix64(h ^ uint64(e.Src)<<32 ^ uint64(e.Dst))
		h = xrand.Mix64(h ^ uint64(math.Float32bits(e.W)))
	}
	return h
}

// derived holds what engines build from one Simple, the values of the
// last two params asked of each kind; entries is made by the first
// Derive, so a graph that derives nothing pays for no map.
type derived struct {
	mu      sync.Mutex
	entries map[any]*derivedSlots
}

// derivedSlots is one kind's values: cur the most recently asked
// param's, prev the one asked before it (nil until a second param).
type derivedSlots struct{ cur, prev *derivedEntry }

type derivedEntry struct {
	param int
	once  sync.Once
	value any
}

// Derive returns what build makes of g, built once per graph: every
// instance loaded from g with the same kind and param shares one value,
// read-only like g itself. kind is a comparable key private to the
// caller (an unexported struct type, as with context keys); param is
// the one input besides g the value depends on. A kind keeps the values
// of the last two params asked of it: a third param evicts the one
// asked least recently, so a thread sweep that re-cuts per shard count
// holds at most two cuts, and a study that alternates two counts builds
// each once. An evicted value is dropped, never reused: an instance
// bound before the eviction may still read it. Concurrent callers of
// one kind and param wait for a single build.
func Derive[T any](g *Simple, kind any, param int, build func() T) T {
	d := &g.derived
	d.mu.Lock()
	sl := d.entries[kind]
	switch {
	case sl == nil:
		if d.entries == nil {
			d.entries = map[any]*derivedSlots{}
		}
		sl = &derivedSlots{cur: &derivedEntry{param: param}}
		d.entries[kind] = sl
	case sl.cur.param == param:
	case sl.prev != nil && sl.prev.param == param:
		sl.cur, sl.prev = sl.prev, sl.cur
	default:
		sl.cur, sl.prev = &derivedEntry{param: param}, sl.cur
	}
	e := sl.cur
	d.mu.Unlock()
	e.once.Do(func() { e.value = build() })
	return e.value.(T)
}

type compressedKind struct{ rows *CSR }

// Compressed returns the delta+varint sibling of rows (g.Out or g.In),
// built once per graph and shared by every instance that compresses.
func (g *Simple) Compressed(rows *CSR) *CompressedCSR {
	return Derive(g, compressedKind{rows}, 0, func() *CompressedCSR { return CompressCSR(rows, 0) })
}
