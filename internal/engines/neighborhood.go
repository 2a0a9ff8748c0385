package engines

import "github.com/hpcl-repro/epg/internal/graph"

// Neighborhood returns the LCC neighborhood of v: out as stored when in
// is nil (an undirected graph's), else the sorted distinct in∪out
// neighbors of v, excluding v, merged into *buf, the caller's scratch.
// Both lists must be sorted ascending.
func Neighborhood(buf *[]graph.VID, out, in []graph.VID, v graph.VID) []graph.VID {
	if in == nil {
		return out
	}
	merged := (*buf)[:0]
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
	*buf = merged
	return merged
}
