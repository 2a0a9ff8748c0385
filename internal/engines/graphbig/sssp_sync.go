package graphbig

import (
	"math"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/traverse"
	"github.com/hpcl-repro/epg/internal/graph"
)

// ssspSync is the synchronous round-barrier variant of System G's
// relaxation (the SyncSSSP knob): Bellman-Ford rounds over an active
// frontier, each one the shared gather/apply pair
// (traverse.State.Relax) over every out-edge. The next frontier is the
// set of improved vertices in apply order, deduplicated per round.
//
// Every observable — distances, parents, relaxation counts, frontier
// composition, and modeled durations — is a pure function of the
// input, so this mode joins the determinism wall. The per-edge cost
// charged is unchanged from the chaotic variant: the modeled System G
// still pays its property-lock traffic per edge; what the barrier buys
// is reproducibility, at the price of a serial merge per round.
func (inst *Instance) ssspSync(res *engines.SSSPResult) (*engines.SSSPResult, error) {
	tr := &inst.trav
	everyEdge := traverse.Pass{Split: math.Inf(1)}
	active, next := append(inst.active[:0], res.Root), inst.nextActive[:0]
	improved := func(u graph.VID, _ float64) {
		if tr.First(u) {
			next = append(next, u)
		}
	}
	for len(active) > 0 {
		next = next[:0]
		res.Relaxations += tr.Relax(inst.m, inst.vertices, &roundRelax, active, res, everyEdge, improved)
		active, next = next, active
	}
	inst.active, inst.nextActive = active, next
	return res, nil
}
