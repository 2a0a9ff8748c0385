package traverse

import (
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/parallel"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// SweepProfile is what one dense pass over [0,n) charges, per chunk
// and in this order. A profile leaves the terms its region does not
// pay zero (adding 0.0 changes no bit).
type SweepProfile struct {
	// Edge is charged per adjacency entry read through Chunk.Row from
	// a raw source; EdgeCompressed per entry of a decoded one, with the
	// encoded bytes and Model.DecodeCyclesPerByte on top, as in Profile.
	Edge, EdgeCompressed simmachine.Cost
	// EdgeShare, when not zero, is the fraction of Edge one entry
	// costs (PowerGraph's label messages: 0.6 of a gather).
	EdgeShare float64
	// Work is charged per unit the body adds to Chunk.Work.
	Work simmachine.Cost
	// Vertex is charged per vertex of the chunk.
	Vertex simmachine.Cost
}

// Chunk is what a sweep body accumulates for the chunk it is running:
// its share of the fold, of the change count and of the Work charge.
// Bodies should add once per chunk, not per vertex.
type Chunk struct {
	Sum     float64
	Changed int64
	Work    int64

	raw, decoded, encBytes int64
	buf                    *graph.RowBuf
	worker                 int      // the real worker running the chunk
	_                      [64]byte // one accumulator per worker: keep them off each other's lines
}

// Worker returns the real worker running the chunk, in
// [0, m.Workers()): the index of that worker's share of per-worker
// scratch such as State.Tallies.
func (c *Chunk) Worker() int { return c.worker }

// Row returns v's row of rows and counts it toward the chunk's edge
// charge: as raw when nothing was decoded, a row merged from a delta
// included. A decoded or merged row is valid until the chunk's next Row
// call; it is built in the worker's buffer.
func (c *Chunk) Row(rows Rows, v int) []graph.VID {
	var adj []graph.VID
	var nb int64
	if csr, ok := rows.(*graph.CSR); ok { // the usual source, without the dynamic call
		adj, nb = csr.Row(graph.VID(v), c.buf)
	} else {
		adj, nb = rows.Row(graph.VID(v), c.buf)
	}
	if nb == 0 { // stored raw (or an empty stream: nothing to count)
		c.raw += int64(len(adj))
		return adj
	}
	c.decoded += int64(len(adj))
	c.encBytes += nb
	return adj
}

// Sweep runs body over [0,n) in chunks of grain — already resolved by
// the caller, through Machine.Grain or raw — as one Dynamic region, and
// returns the chunk-ordered sum of every chunk's Sum (bit-identical
// across runs and worker counts) and the total of Changed. Partials
// reads the per-chunk sums until the next Sweep. The reducer, counter
// and accumulators are the State's, so a warm sweep allocates nothing
// that scales with n.
func (s *State) Sweep(m *simmachine.Machine, n, grain int, p *SweepProfile, body func(c *Chunk, lo, hi int)) (sum float64, changed int64) {
	chg := s.ready(m)
	s.parts = Resized(s.parts, parallel.NumChunks(n, grain))
	cpb := m.Model().DecodeCyclesPerByte
	m.ParallelForChunks(n, grain, simmachine.Dynamic, func(lo, hi, chunk, worker int, w *simmachine.W) {
		c := &s.chunks[worker]
		*c = Chunk{buf: &s.rowBufs[worker], worker: worker}
		body(c, lo, hi)
		s.parts[chunk] = c.Sum
		chg.Add(worker, c.Changed)
		entries := float64(c.raw)
		if p.EdgeShare != 0 {
			entries *= p.EdgeShare
		}
		w.Charge(p.Edge.Scale(entries))
		w.Charge(p.EdgeCompressed.Scale(float64(c.decoded)))
		w.Cycles(cpb * float64(c.encBytes))
		w.Bytes(float64(c.encBytes))
		w.Charge(p.Work.Scale(float64(c.Work)))
		w.Charge(p.Vertex.Scale(float64(hi - lo)))
	})
	for _, part := range s.parts {
		sum += part
	}
	return sum, chg.Sum()
}

// Partials returns a copy of the last Sweep's per-chunk sums, in chunk
// order.
func (s *State) Partials() []float64 { return append([]float64(nil), s.parts...) }

// Hook is one synchronous round of min-label propagation: next[v]
// becomes the smallest label among comp[v] and v's neighbors along out
// and, for a directed graph, in (nil when out is symmetric) — read from
// comp only, so no chunk sees a label another lowered in the same
// round. It returns how many labels it lowered; when none, next equals
// comp.
func (s *State) Hook(m *simmachine.Machine, grain int, p *SweepProfile, out, in Rows, comp, next []graph.VID) (changed int64) {
	lowest := func(min graph.VID, adj []graph.VID) graph.VID {
		for _, u := range adj {
			if comp[u] < min {
				min = comp[u]
			}
		}
		return min
	}
	_, changed = s.Sweep(m, len(comp), grain, p, func(c *Chunk, lo, hi int) {
		var lowered int64
		for v := lo; v < hi; v++ {
			min := lowest(comp[v], c.Row(out, v))
			if in != nil {
				min = lowest(min, c.Row(in, v))
			}
			next[v] = min
			if min < comp[v] {
				lowered++
			}
		}
		c.Changed = lowered
	})
	return changed
}

// Tally is a histogram of labels drawn from [0,n): a dense count per
// label plus the list of labels seen, so that filling and emptying it
// cost what was added, never n. One per worker is kept on the State.
type Tally struct {
	count []int32
	seen  []graph.VID
	_     [64]byte // per worker: keep them off each other's lines
}

// Add counts one occurrence of label l.
func (t *Tally) Add(l graph.VID) {
	if t.count[l] == 0 {
		t.seen = append(t.seen, l)
	}
	t.count[l]++
}

// Has reports whether l has been added since the tally was last empty.
func (t *Tally) Has(l graph.VID) bool { return t.count[l] != 0 }

// Reset empties the tally.
func (t *Tally) Reset() {
	for _, l := range t.seen {
		t.count[l] = 0
	}
	t.seen = t.seen[:0]
}

// Pick is the CDLP update rule every engine shares — the most frequent
// label, ties to the smallest; own when nothing was added — and empties
// the tally.
func (t *Tally) Pick(own graph.VID) graph.VID {
	best, bestN := own, int32(0)
	for _, l := range t.seen {
		if c := t.count[l]; c > bestN || (c == bestN && l < best) {
			best, bestN = l, c
		}
	}
	t.Reset()
	return best
}

// Tallies returns one empty Tally over [0,n) per worker of m, indexed
// by the worker ID a region body is handed.
func (s *State) Tallies(m *simmachine.Machine, n int) []Tally {
	if w := m.Workers(); len(s.tallies) != w {
		s.tallies = make([]Tally, w)
	}
	for i := range s.tallies {
		if t := &s.tallies[i]; len(t.count) != n {
			*t = Tally{count: make([]int32, n)}
		} else {
			t.Reset() // an abandoned region leaves one filled
		}
	}
	return s.tallies
}

// Vote is one synchronous round of label propagation: next[v] becomes
// the most frequent label among v's neighbors along out and, for a
// directed graph, in (nil when out is symmetric) — Tally.Pick's rule,
// read from label only. It returns how many vertices changed label.
func (s *State) Vote(m *simmachine.Machine, grain int, p *SweepProfile, out, in Rows, label, next []graph.VID) (changed int64) {
	tallies := s.Tallies(m, len(label))
	_, changed = s.Sweep(m, len(label), grain, p, func(c *Chunk, lo, hi int) {
		t := &tallies[c.worker]
		var moved int64
		for v := lo; v < hi; v++ {
			for _, u := range c.Row(out, v) {
				t.Add(label[u])
			}
			if in != nil {
				for _, u := range c.Row(in, v) {
					t.Add(label[u])
				}
			}
			next[v] = t.Pick(label[v])
			if next[v] != label[v] {
				moved++
			}
		}
		c.Changed = moved
	})
	return changed
}

// LinkCount fills coeff with the local clustering coefficients of a
// simple graph with sorted adjacency: for every vertex, the links among
// its neighborhood (out, merged with in for a directed graph; in is nil
// when out is symmetric) counted by sorted-merge intersection of each
// neighbor's out-row with the neighborhood, over d·(d−1). Every merge
// comparison is one unit of Work.
func (s *State) LinkCount(m *simmachine.Machine, grain int, p *SweepProfile, out, in *graph.CSR, coeff []float64) {
	s.Sweep(m, len(coeff), grain, p, func(c *Chunk, lo, hi int) {
		var checks int64
		for v := lo; v < hi; v++ {
			nbrs := out.Neighbors(graph.VID(v))
			if in != nil {
				nbrs = engines.Neighborhood(nbrs, in.Neighbors(graph.VID(v)), graph.VID(v))
			}
			d := len(nbrs)
			if d < 2 {
				continue
			}
			links := 0
			for _, u := range nbrs {
				adj := out.Neighbors(u)
				i, j := 0, 0
				for i < len(adj) && j < len(nbrs) {
					checks++
					switch {
					case adj[i] < nbrs[j]:
						i++
					case adj[i] > nbrs[j]:
						j++
					default:
						links++
						i++
						j++
					}
				}
			}
			coeff[v] = float64(links) / float64(d*(d-1))
		}
		c.Work = checks
	})
}
