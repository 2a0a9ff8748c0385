package gap

import (
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/traverse"
	"github.com/hpcl-repro/epg/internal/graph"
)

// ssspSync is the synchronous bucket-barrier variant of delta-stepping
// (the SyncSSSP knob). The bucket structure is identical to the chaotic
// version; what changes is the inner relaxation pass, which becomes the
// shared gather/apply pair (traverse.State.Relax): candidates gathered
// against a distance snapshot, merged serially in chunk order. GAP's
// part is the bucketing policy around it — which entries a bucket still
// owns, and where each win goes.
//
// Every observable — parents, relaxation counts, bucket composition,
// and the modeled durations of both the parallel gather and the serial
// merge — is independent of the real goroutine schedule and worker
// count. This is the mode the determinism wall runs. The price is the
// serial merge (a real bucket-barrier, charged at single-thread
// speed), which the chaotic default does not pay.
func (inst *Instance) ssspSync(ws *workspace, res *engines.SSSPResult) (*engines.SSSPResult, error) {
	tr := &inst.trav
	delta := inst.Delta
	if delta <= 0 {
		delta = DefaultDelta
	}
	bucketOf := func(d float64) int { return int(d / delta) }
	ws.resetBuckets(res.Root)

	// The bucketing policy, once per call: bi is the bucket being
	// settled, reAdd its re-settle list for the pass under way.
	bi := 0
	var reAdd []graph.VID
	light := traverse.Pass{
		Split: delta,
		// Skip only entries settled into a LATER bucket. An entry whose
		// distance sits in an earlier bucket (a heavy relaxation that
		// landed at or below bi and was requeued to bi+1) must still
		// relax its light edges here, or that work would be dropped
		// forever.
		Stale: func(d float64) bool { return bucketOf(d) > bi },
	}
	settle := func(u graph.VID, nd float64) {
		// b < bi is only reachable from an entry whose distance already
		// sat below the bucket; keep settling it here — bucket b has
		// passed.
		if b := bucketOf(nd); b > bi {
			ws.putBucket(b, u)
		} else if tr.First(u) {
			reAdd = append(reAdd, u)
		}
	}
	heavy := traverse.Pass{Split: delta, Heavy: true}
	requeue := func(u graph.VID, nd float64) {
		// Float rounding can land a heavy relaxation in the current
		// bucket range; reprocess it in the next bucket, as the chaotic
		// variant does.
		ws.putBucket(max(bucketOf(nd), bi+1), u)
	}

	for ; bi < len(ws.buckets); bi++ {
		// Nothing is put into bucket bi while it settles (re-adds go
		// through ws.reAdd, the rest to later buckets), so truncating it
		// now keeps its array for the next call without touching current.
		current := ws.buckets[bi]
		ws.buckets[bi] = current[:0]
		heavyFrontier := ws.heavy[:0]
		for len(current) > 0 {
			// Same bucket-granularity cancellation point as the chaotic
			// variant; the check itself charges nothing, so modeled
			// durations are untouched when no deadline fires.
			if err := tr.Poll("gap: SSSP"); err != nil {
				return nil, err
			}
			heavyFrontier = append(heavyFrontier, current...)
			// current is dead once gathered, so the re-adds may land in
			// the very array it came from.
			reAdd = ws.reAdd[:0]
			res.Relaxations += tr.Relax(inst.m, inst.out, &syncRelax, current, res, light, settle)
			ws.reAdd = reAdd
			current = reAdd
		}
		ws.heavy = heavyFrontier
		// One synchronous pass over the settled bucket's heavy edges.
		if len(heavyFrontier) > 0 {
			res.Relaxations += tr.Relax(inst.m, inst.out, &syncRelax, heavyFrontier, res, heavy, requeue)
		}
	}
	return res, nil
}
