package engines

import "github.com/hpcl-repro/epg/internal/graph"

// Neighborhood returns the sorted distinct in∪out neighbors of v,
// excluding v — the LCC neighborhood of a directed graph — appended to
// dst[:0], the caller's scratch. Both lists must be sorted ascending.
// (An undirected graph's neighborhood is its out-list as stored: callers
// skip the merge.)
func Neighborhood(dst, out, in []graph.VID, v graph.VID) []graph.VID {
	merged := dst[:0]
	i, j := 0, 0
	for i < len(out) || j < len(in) {
		var nxt graph.VID
		switch {
		case i >= len(out):
			nxt = in[j]
			j++
		case j >= len(in):
			nxt = out[i]
			i++
		case out[i] < in[j]:
			nxt = out[i]
			i++
		case in[j] < out[i]:
			nxt = in[j]
			j++
		default:
			nxt = out[i]
			i++
			j++
		}
		if nxt == v {
			continue
		}
		if len(merged) == 0 || merged[len(merged)-1] != nxt {
			merged = append(merged, nxt)
		}
	}
	return merged
}
