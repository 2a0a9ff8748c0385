package all

import (
	"testing"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/kronecker"
	"github.com/hpcl-repro/epg/internal/verify"
	"github.com/hpcl-repro/epg/internal/xrand"
)

// The relabel wall: no engine's answer depends on what the vertices are
// called. Under a random permutation π of kron-9's vertices, undirected
// and directed, for every Decl with compression on wherever it honors
// it: the BFS depth of π(v) from π(root) is the depth of v from root; u
// and v share a WCC component exactly when π(u) and π(v) do; and
// PageRank agrees within verify's tolerance, since relabeling reorders
// its sums.
func TestRelabelInvariance(t *testing.T) {
	und := kronecker.Generate(kronecker.Params{Scale: 9, Seed: 42})
	perm := xrand.New(7).Perm(und.NumVertices)
	pi := func(v graph.VID) graph.VID { return graph.VID(perm[v]) }
	for _, directed := range []bool{false, true} {
		el := *und
		el.Directed = directed
		rel := el
		rel.Edges = make([]graph.Edge, len(el.Edges))
		for i, e := range el.Edges {
			rel.Edges[i] = graph.Edge{Src: pi(e.Src), Dst: pi(e.Dst), W: e.W}
		}
		g, err := graph.Homogenize(&el)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := graph.Homogenize(&rel)
		if err != nil {
			t.Fatal(err)
		}
		root := core.SelectRoots(g.Out, 1, 42)[0]
		kind := map[bool]string{false: "undirected", true: "directed"}[directed]
		for _, d := range Registry() {
			t.Run(kind+"/"+d.Name, func(t *testing.T) {
				opts := engines.Options{Compress: d.Knobs.Compress}
				a, _ := loadShared(t, d.Name, g, 2, opts)
				b, _ := loadShared(t, d.Name, gr, 2, opts)
				if d.Has(engines.BFS) {
					x, err := a.BFS(root, nil)
					if err != nil {
						t.Fatal(err)
					}
					y, err := b.BFS(pi(root), nil)
					if err != nil {
						t.Fatal(err)
					}
					for v, depth := range x.Depth {
						if y.Depth[perm[v]] != depth {
							t.Fatalf("BFS: vertex %d at depth %d, relabeled %d", v, depth, y.Depth[perm[v]])
						}
					}
				}
				if d.Has(engines.WCC) {
					x, err := a.WCC(nil)
					if err != nil {
						t.Fatal(err)
					}
					y, err := b.WCC(nil)
					if err != nil {
						t.Fatal(err)
					}
					// The components match one to one: each label of x
					// maps to one label of y and back.
					fwd, back := map[graph.VID]graph.VID{}, map[graph.VID]graph.VID{}
					for v, c := range x.Component {
						cr := y.Component[perm[v]]
						if f, ok := fwd[c]; ok && f != cr {
							t.Fatalf("WCC: component %d splits under relabeling", c)
						}
						if bk, ok := back[cr]; ok && bk != c {
							t.Fatalf("WCC: components %d and %d merge under relabeling", bk, c)
						}
						fwd[c], back[cr] = cr, c
					}
				}
				if d.Has(engines.PageRank) {
					x, err := a.PageRank(engines.DefaultPROpts(), nil)
					if err != nil {
						t.Fatal(err)
					}
					y, err := b.PageRank(engines.DefaultPROpts(), nil)
					if err != nil {
						t.Fatal(err)
					}
					back := &engines.PRResult{Rank: make([]float64, len(x.Rank))}
					for v := range back.Rank {
						back.Rank[v] = y.Rank[perm[v]]
					}
					if err := verify.ValidatePageRank(back, x, prTolerance(d.Name, d.Name)); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}
