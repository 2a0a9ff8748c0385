package server

import (
	"github.com/hpcl-repro/epg/internal/graph"
)

// Bench is the goroutine-free serving core — one executor serving the
// generation it computed itself — used by the deterministic
// virtual-time load simulation and the loadgen study. Run calls are
// serialized by construction (single caller), so modeled service
// times are pure functions of query content. The vectors are computed
// on the executor that serves: a modeled duration is a difference of
// its machine's accumulating clock, and moving that work to another
// machine moves the study's columns in the last bit.
type Bench struct {
	exec     *executor
	pub      *published
	weighted bool
	n        int
	// cache memoizes responses by (query, degraded, budget). Beyond
	// speed, it pins bit-determinism for repeated simulations on one
	// bench: the machine's elapsed accumulator grows monotonically, so
	// re-running the same kernel later yields the same modeled duration
	// only up to float rounding — the first run's bits are canonical.
	cache map[benchKey]Response
}

type benchKey struct {
	q        Query
	degraded bool
	budget   float64
}

// NewBench builds the serving core without starting any goroutines.
func NewBench(el *graph.EdgeList, threads, landmarks int, compress bool) (*Bench, error) {
	g, err := graph.Homogenize(el)
	if err != nil {
		return nil, err
	}
	e, pub, err := newMaintainer(g, threads, landmarks, compress)
	if err != nil {
		return nil, err
	}
	return &Bench{
		exec:     e,
		pub:      pub,
		weighted: g.Weighted,
		n:        g.NumVertices,
		cache:    make(map[benchKey]Response),
	}, nil
}

// NumVertices reports the query ID space.
func (b *Bench) NumVertices() int { return b.n }

// Weighted reports whether SSSP queries are servable.
func (b *Bench) Weighted() bool { return b.weighted }

// Run serves one query directly on the bench executor, memoized.
func (b *Bench) Run(q Query, budget float64, degraded bool) Response {
	key := benchKey{q: q, degraded: degraded, budget: budget}
	if resp, ok := b.cache[key]; ok {
		return resp
	}
	resp := b.exec.run(nil, q, budget, degraded, b.pub)
	b.cache[key] = resp
	return resp
}
