package server

import (
	"github.com/hpcl-repro/epg/internal/graph"
)

// Bench is the goroutine-free serving core — one executor serving the
// generation it computed itself — used by the deterministic
// virtual-time load simulation and the loadgen study. Run calls are
// serialized by construction (single caller), and every query runs on
// a clock that starts at zero, so a query's modeled service time is a
// pure function of its content: the same on every run.
type Bench struct {
	exec     *executor
	pub      *published
	weighted bool
	n        int
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
	return &Bench{exec: e, pub: pub, weighted: g.Weighted, n: g.NumVertices}, nil
}

// Run serves one query directly on the bench executor.
func (b *Bench) Run(q Query, budget float64, degraded bool) Response {
	return b.exec.run(nil, q, budget, degraded, b.pub)
}
