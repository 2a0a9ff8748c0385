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
	everyEdge := traverse.Pass{Split: math.Inf(1)}
	inst.active = append(inst.active[:0], res.Root)
	for len(inst.active) > 0 {
		inst.nextActive = inst.nextActive[:0]
		res.Relaxations += inst.trav.Relax(inst.m, &inst.vertices, &roundRelax, inst.active, res, everyEdge, (*roundWins)(&inst.scratch))
		inst.active, inst.nextActive = inst.nextActive, inst.active
	}
	return res, nil
}

// roundWins is a round's win hook, a view of the scratch: an improved
// vertex joins the next frontier once per round.
type roundWins scratch

func (r *roundWins) Win(s *traverse.State, u graph.VID, _ float64) {
	if s.First(u) {
		r.nextActive = append(r.nextActive, u)
	}
}
