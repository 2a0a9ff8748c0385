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
	ws.delta = inst.Delta
	if ws.delta <= 0 {
		ws.delta = DefaultDelta
	}
	light := traverse.Pass{Split: ws.delta, Stale: (*syncLight)(ws)}
	heavy := traverse.Pass{Split: ws.delta, Heavy: true}
	ws.resetBuckets(res.Root)

	// The bucketing policy lives in the hooks below, which read the
	// bucket being settled from ws.bucket and put re-settles in ws.reAdd.
	for ws.bucket = 0; ws.bucket < len(ws.buckets); ws.bucket++ {
		// Nothing is put into the bucket while it settles (re-adds go
		// through ws.reAdd, the rest to later buckets), so truncating it
		// now keeps its array for the next call without touching current.
		current := ws.buckets[ws.bucket]
		ws.buckets[ws.bucket] = current[:0]
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
			ws.reAdd = ws.reAdd[:0]
			res.Relaxations += tr.Relax(inst.m, inst.out, &syncRelax, current, res, light, (*syncLight)(ws))
			current = ws.reAdd
		}
		ws.heavy = heavyFrontier
		// One synchronous pass over the settled bucket's heavy edges.
		if len(heavyFrontier) > 0 {
			res.Relaxations += tr.Relax(inst.m, inst.out, &syncRelax, heavyFrontier, res, heavy, (*syncHeavy)(ws))
		}
	}
	return res, nil
}

// The synchronous variant's hooks, views of the workspace.
type syncLight workspace
type syncHeavy workspace

// Stale is the light pass's filter: skip only entries settled into a
// LATER bucket. An entry whose distance sits in an earlier bucket (a
// heavy relaxation that landed at or below the current one and was
// requeued to the next) must still relax its light edges here, or that
// work would be dropped forever.
func (p *syncLight) Stale(d float64) bool { return bucketOf(d, p.delta) > p.bucket }

// Win places a light pass's win: in its later bucket, or — b below the
// current bucket is only reachable from an entry whose distance already
// sat below it — back into the current one, once per pass.
func (p *syncLight) Win(s *traverse.State, u graph.VID, nd float64) {
	ws := (*workspace)(p)
	if b := bucketOf(nd, ws.delta); b > ws.bucket {
		ws.putBucket(b, u)
	} else if s.First(u) {
		ws.reAdd = append(ws.reAdd, u)
	}
}

// Win places a heavy pass's win. Float rounding can land a heavy
// relaxation in the current bucket range; reprocess it in the next
// bucket, as the chaotic variant does.
func (p *syncHeavy) Win(_ *traverse.State, u graph.VID, nd float64) {
	ws := (*workspace)(p)
	ws.putBucket(max(bucketOf(nd, ws.delta), ws.bucket+1), u)
}
