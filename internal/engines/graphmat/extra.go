package graphmat

import (
	"sync/atomic"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/traverse"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// CDLP implements engines.Instance: synchronous label propagation as
// a histogram-semiring SpMV. For directed graphs both the in- and
// out-matrices contribute messages (LDBC semantics).
func (inst *Instance) CDLP(maxIter int) (*engines.CDLPResult, error) {
	inst.BuildStructure()
	n := inst.n
	// label is made per call and handed out; the other of the pair is kept.
	label, next := make([]graph.VID, n), traverse.Resized(inst.spare, n)
	for i := range label {
		label[i] = graph.VID(i)
	}
	tallies := inst.trav.Tallies(inst.m, n) // the histogram semiring's accumulators
	res := &engines.CDLPResult{}
	for iter := 1; iter <= maxIter; iter++ {
		copy(next, label)
		var changed int64
		inst.spmvRows(inst.inMat, func(ri, worker int, w *simmachine.W) {
			v := inst.inMat.rows[ri]
			counts := &tallies[worker]
			lo, hi := inst.inMat.ptr[ri], inst.inMat.ptr[ri+1]
			for i := lo; i < hi; i++ {
				counts.Add(label[inst.inMat.cols[i]])
			}
			nz := hi - lo
			if inst.directed {
				if ro := inst.outRowOf[v]; ro >= 0 {
					olo, ohi := inst.outMat.ptr[ro], inst.outMat.ptr[ro+1]
					for i := olo; i < ohi; i++ {
						counts.Add(label[inst.outMat.cols[i]])
					}
					nz += ohi - olo
				}
			}
			w.Charge(costScanNZ.Scale(float64(nz)))
			w.Charge(costProcessNZ.Scale(float64(nz)))
			nl := counts.Pick(label[v])
			if nl != label[v] {
				next[v] = nl
				atomic.AddInt64(&changed, 1)
			}
		})
		// Directed graphs: vertices with only out-edges never appear
		// as inMat rows; give them their histogram too.
		if inst.directed {
			inst.spmvRows(inst.outMat, func(ri, worker int, w *simmachine.W) {
				v := inst.outMat.rows[ri]
				// Skip vertices already handled via inMat rows.
				if hasInRow(inst.inMat, v) {
					return
				}
				counts := &tallies[worker]
				lo, hi := inst.outMat.ptr[ri], inst.outMat.ptr[ri+1]
				for i := lo; i < hi; i++ {
					counts.Add(label[inst.outMat.cols[i]])
				}
				w.Charge(costScanNZ.Scale(float64(hi - lo)))
				nl := counts.Pick(label[v])
				if nl != label[v] {
					next[v] = nl
					atomic.AddInt64(&changed, 1)
				}
			})
		}
		inst.denseSweep(1)
		label, next = next, label
		res.Iterations = iter
		if changed == 0 {
			break
		}
	}
	res.Label, inst.spare = label, next
	return res, nil
}

// hasInRow reports whether v appears as a row of mat (binary search:
// rows are ascending by construction).
func hasInRow(mat *dcsr, v graph.VID) bool {
	lo, hi := 0, len(mat.rows)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case mat.rows[mid] < v:
			lo = mid + 1
		case mat.rows[mid] > v:
			hi = mid
		default:
			return true
		}
	}
	return false
}

// WCC implements engines.Instance: min-semiring SpMV iterated until
// quiescent. For directed graphs the min gathers over both
// directions (weak connectivity).
func (inst *Instance) WCC() (*engines.WCCResult, error) {
	inst.BuildStructure()
	n := inst.n
	comp, next := make([]graph.VID, n), traverse.Resized(inst.spare, n) // as in CDLP
	for i := range comp {
		comp[i] = graph.VID(i)
	}
	sweep := func(mat *dcsr) int64 {
		var changed int64
		inst.spmvRows(mat, func(ri, _ int, w *simmachine.W) {
			v := mat.rows[ri]
			lo, hi := mat.ptr[ri], mat.ptr[ri+1]
			min := next[v]
			for i := lo; i < hi; i++ {
				if c := comp[mat.cols[i]]; c < min {
					min = c
				}
			}
			nz := hi - lo
			w.Charge(costScanNZ.Scale(float64(nz)))
			if min < next[v] {
				next[v] = min
				atomic.AddInt64(&changed, 1)
			}
		})
		return changed
	}
	for {
		copy(next, comp)
		changed := sweep(inst.inMat)
		if inst.directed {
			changed += sweep(inst.outMat)
		}
		inst.denseSweep(2)
		comp, next = next, comp
		if changed == 0 {
			break
		}
	}
	inst.spare = next
	return &engines.WCCResult{Component: comp}, nil
}

// LCC implements engines.Instance: GraphMat's Graphalytics LCC maps
// to masked sparse matrix products; here the same counts come from
// sorted-adjacency intersections — the shared link-count step — with
// SpMV-grade per-check costs (the paper's Table I shows LCC dominating
// every system's runtime on the dense Dota-League graph).
func (inst *Instance) LCC() (*engines.LCCResult, error) {
	inst.BuildStructure()
	coeff := make([]float64, inst.n)
	inst.trav.LinkCount(inst.m, 64, &lccLinks, inst.out, inst.in, coeff)
	return &engines.LCCResult{Coeff: coeff}, nil
}
