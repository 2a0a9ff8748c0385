package graph

// Simple is the homogenized graph of one run: the simple graph (no
// self-loops, no parallel edges, sorted rows, both orientations of an
// undirected edge) every engine, the root selection, the cluster owner
// table and the stream shadow are built from. It is built once, by
// Homogenize, and shared: nothing that receives one may write to Out
// or In — engines alias the arrays, and a mutation makes a new epoch
// (MutableCSR) rather than patching a row.
type Simple struct {
	NumVertices int
	Directed    bool
	Weighted    bool
	// InputEdges is the length of the edge list the graph came from,
	// the size the modeled file-read and construction charges scale by.
	InputEdges int
	Out        *CSR
	// In is the sorted transpose of a directed graph; nil when the
	// graph is undirected and Out is its own transpose.
	In *CSR
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
