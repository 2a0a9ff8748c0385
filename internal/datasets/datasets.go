// Package datasets synthesizes offline analogues of the two real-world
// graphs used in the paper: Dota-League (Game Trace Archive, as
// packaged by Graphalytics) and cit-Patents (SNAP / NBER).
//
// The real files cannot be downloaded in this environment, so each
// generator reproduces the published shape statistics that drive the
// paper's observations:
//
//   - Dota-League: 61,670 vertices, 50,870,313 edges, weighted,
//     average out-degree ~824, unusually dense with heavy community
//     structure (players repeatedly matched with and against similar
//     opponents). Density is what makes PowerGraph's vertex-cut pay
//     off for SSSP in Fig. 8.
//   - cit-Patents: 3,774,768 vertices, 16,518,948 edges, directed,
//     unweighted citation network; time-ordered (patents cite only
//     earlier patents), sparse (avg out-degree ~4.4), wide and
//     shallow. Being unweighted makes SSSP N/A in Table I.
//
// Both generators take a ScaleDivisor so tests and default benchmarks
// run a proportionally smaller graph with the same density character;
// divisor 1 reproduces the full published sizes.
package datasets

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/xrand"
)

// Published sizes of the real datasets.
const (
	DotaVertices    = 61670
	DotaEdges       = 50870313
	PatentsVertices = 3774768
	PatentsEdges    = 16518948
)

// Name identifies a built-in dataset.
type Name string

const (
	DotaLeague Name = "dota-league"
	CitPatents Name = "cit-Patents"
)

// Config controls synthetic dataset generation.
type Config struct {
	// ScaleDivisor shrinks both vertex and edge counts by this
	// factor, preserving average degree. 0 or 1 means full size.
	ScaleDivisor int
	Seed         uint64
	Workers      int
}

func (c Config) divisor() int {
	if c.ScaleDivisor <= 1 {
		return 1
	}
	return c.ScaleDivisor
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Generate builds the named dataset.
func Generate(name Name, cfg Config) (*graph.EdgeList, error) {
	switch name {
	case DotaLeague:
		return GenerateDotaLeague(cfg), nil
	case CitPatents:
		return GenerateCitPatents(cfg), nil
	default:
		return nil, fmt.Errorf("datasets: unknown dataset %q", name)
	}
}

// GenerateDotaLeague synthesizes the dense weighted match-interaction
// graph. Model: vertices are players partitioned into skill
// communities; each synthetic "match" samples a community
// neighbourhood (90% intra-community) and links players with uniform
// (0,1] interaction weights. This yields the published density
// (avg out-degree ~824 at full size) and strong clustering without
// storing any real trace data.
func GenerateDotaLeague(cfg Config) *graph.EdgeList {
	div := cfg.divisor()
	n := DotaVertices / div
	if n < 64 {
		n = 64
	}
	m := DotaEdges / (div * div)
	// Preserve the published average degree (~824) as long as the
	// vertex count allows it; degree cannot exceed n-1 sensibly.
	avgDeg := DotaEdges / DotaVertices // ~824
	if maxM := n * avgDeg / div; m > maxM {
		m = maxM
	}
	if m < n {
		m = 4 * n
	}
	const communities = 64

	el := &graph.EdgeList{
		NumVertices: n,
		Edges:       make([]graph.Edge, m),
		Weighted:    true,
		Directed:    true,
	}
	commOf := make([]uint16, n)
	rc := xrand.New(cfg.Seed ^ 0xd07a)
	for i := range commOf {
		commOf[i] = uint16(rc.Intn(communities))
	}
	// Per-community member lists for intra-community sampling.
	members := make([][]graph.VID, communities)
	for v, c := range commOf {
		members[c] = append(members[c], graph.VID(v))
	}
	for c := range members {
		if len(members[c]) == 0 { // tiny graphs may leave a community empty
			members[c] = append(members[c], graph.VID(c%n))
		}
	}

	parallelEdges(m, cfg.workers(), func(i int, r *xrand.RNG) {
		src := graph.VID(r.Intn(n))
		var dst graph.VID
		if r.Float64() < 0.90 {
			list := members[commOf[src]]
			dst = list[r.Intn(len(list))]
		} else {
			dst = graph.VID(r.Intn(n))
		}
		w := r.Float32()
		if w == 0 {
			w = 0.5
		}
		el.Edges[i] = graph.Edge{Src: src, Dst: dst, W: w}
	}, cfg.Seed^0x00d07a1ea90e)
	return el
}

// GenerateCitPatents synthesizes the citation network. Model: patents
// are issued in time order; patent v cites earlier patents with
// preferential attachment (probability proportional to citations
// received plus one), which reproduces the real network's power-law
// in-degree, DAG structure, and sparsity. Unweighted and directed.
func GenerateCitPatents(cfg Config) *graph.EdgeList {
	div := cfg.divisor()
	n := PatentsVertices / div
	if n < 128 {
		n = 128
	}
	m := PatentsEdges / div
	avg := m / n // ~4.4 citations per patent
	if avg < 1 {
		avg = 2
		m = n * avg
	}

	el := &graph.EdgeList{
		NumVertices: n,
		Weighted:    false,
		Directed:    true,
	}
	edges := make([]graph.Edge, 0, m)

	// Preferential attachment via the repeated-endpoint trick: keep
	// a pool of previously cited targets; with probability p pick
	// from the pool (∝ in-degree), otherwise uniform over earlier
	// patents. Serial but cheap (one pass).
	r := xrand.New(cfg.Seed ^ 0xc17a7e)
	pool := make([]graph.VID, 0, m)
	const pPref = 0.65
	for v := 1; v < n; v++ {
		// Cites ~Poisson(avg) earlier patents; geometric-ish draw
		// keeps it integer and fast.
		k := 1 + r.Intn(2*avg)
		if len(edges)+k > m {
			k = m - len(edges)
		}
		for j := 0; j < k; j++ {
			var dst graph.VID
			if len(pool) > 0 && r.Float64() < pPref {
				dst = pool[r.Intn(len(pool))]
			} else {
				dst = graph.VID(r.Intn(v))
			}
			if int(dst) >= v { // cite strictly earlier patents
				dst = graph.VID(v - 1)
			}
			edges = append(edges, graph.Edge{Src: graph.VID(v), Dst: dst})
			pool = append(pool, dst)
		}
		if len(edges) >= m {
			break
		}
	}
	el.Edges = edges
	return el
}

// Stats summarizes a dataset for reports and README tables.
type Stats struct {
	Name         string
	NumVertices  int
	NumEdges     int
	AvgOutDegree float64
	Weighted     bool
	Directed     bool
}

// Describe computes summary statistics of an edge list.
func Describe(name string, el *graph.EdgeList) Stats {
	return Stats{
		Name:         name,
		NumVertices:  el.NumVertices,
		NumEdges:     len(el.Edges),
		AvgOutDegree: float64(len(el.Edges)) / float64(el.NumVertices),
		Weighted:     el.Weighted,
		Directed:     el.Directed,
	}
}

// parallelEdges fills indices [0, m) concurrently; each index derives
// its RNG from the seed and index so results are schedule-independent.
func parallelEdges(m, workers int, body func(i int, r *xrand.RNG), seed uint64) {
	var wg sync.WaitGroup
	chunk := (m + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= m {
			break
		}
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				body(i, xrand.New(seed^xrand.Mix64(uint64(i))))
			}
		}(lo, hi)
	}
	wg.Wait()
}
