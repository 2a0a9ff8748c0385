package simmachine

import (
	"math"
	"testing"
)

// skewedRegion charges a degree-skewed workload (chunk cost grows with
// the index) under the given policy and worker count.
func skewedRegion(sched Sched, threads, workers int) (float64, Cost) {
	m := New(testModel(), threads)
	m.SetWorkers(workers)
	m.ParallelFor(1024, 8, sched, func(lo, hi int, w *W) {
		w.Cycles(float64((hi - lo) * (lo + 7)))
		w.Bytes(float64(hi-lo) * 48)
		w.Atomics(float64(lo % 5))
	})
	var total Cost
	for _, r := range m.Trace() {
		total.Add(r.Cost)
	}
	return m.Elapsed(), total
}

func TestStealDurationsIndependentOfWorkers(t *testing.T) {
	base, baseCost := skewedRegion(Steal, 8, 1)
	for _, workers := range []int{1, 2, 4, 16} {
		for rep := 0; rep < 3; rep++ {
			got, cost := skewedRegion(Steal, 8, workers)
			if got != base {
				t.Fatalf("workers=%d rep=%d: modeled %v != %v", workers, rep, got, base)
			}
			if cost != baseCost {
				t.Fatalf("workers=%d: charged cost %+v != %+v", workers, cost, baseCost)
			}
		}
	}
}

func TestStealLanesConserveChunkCosts(t *testing.T) {
	model := testModel()
	costs := make([]Cost, 100)
	var wantCycles, wantBytes, wantAtomics float64
	for i := range costs {
		costs[i] = Cost{Cycles: float64(i * 11), Bytes: float64(i % 7 * 32), Atomics: float64(i % 3)}
		wantCycles += costs[i].Cycles
		wantBytes += costs[i].Bytes
		wantAtomics += costs[i].Atomics
	}
	for _, threads := range []int{1, 3, 8, 72} {
		lanes, _ := simSteal(costs, threads, 1, 1, 0, false, &model)
		var got Cost
		for _, l := range lanes {
			got.Add(l)
		}
		if got.Cycles != wantCycles || got.Bytes != wantBytes {
			t.Errorf("threads=%d: cycles/bytes not conserved: %+v", threads, got)
		}
		// Steals add atomics (the claiming CAS) but never drop any.
		if got.Atomics < wantAtomics {
			t.Errorf("threads=%d: atomics dropped: %v < %v", threads, got.Atomics, wantAtomics)
		}
	}
}

// Work stealing must fix the load imbalance Static suffers when the
// heavy chunks cluster on one lane's residue class, landing near
// Dynamic's greedy-balanced duration. (On *balanced* chunk costs the
// steal simulation performs no steals and coincides with Static —
// that is the point of locality-preserving initial placement.)
func TestStealBalancesSkewLikeDynamic(t *testing.T) {
	region := func(sched Sched) float64 {
		m := New(testModel(), 16)
		m.ParallelFor(1024, 8, sched, func(lo, hi int, w *W) {
			if (lo/8)%16 == 0 { // all heavy chunks belong to lane 0 statically
				w.Cycles(5e5)
			} else {
				w.Cycles(200)
			}
		})
		return m.Elapsed()
	}
	static := region(Static)
	dynamic := region(Dynamic)
	steal := region(Steal)
	if steal >= static {
		t.Errorf("steal (%v) not faster than static (%v) on skew", steal, static)
	}
	if steal > dynamic*1.25 {
		t.Errorf("steal (%v) more than 25%% behind dynamic (%v)", steal, dynamic)
	}
}

func TestSchedOverrideForcesPolicy(t *testing.T) {
	// Residue-clustered skew: every chunk with index ≡ 0 (mod 16) is
	// heavy, so Static piles all heavy chunks on lane 0 and stealing
	// must redistribute them — the durations cannot coincide.
	body := func(lo, hi int, w *W) {
		if (lo/4)%16 == 0 {
			w.Cycles(1e6)
		} else {
			w.Cycles(100)
		}
	}
	run := func(override bool) float64 {
		m := New(testModel(), 16)
		if override {
			m.SetSchedOverride(Steal)
		}
		// Engine asks for Static; the override must land on Steal.
		m.ParallelFor(512, 4, Static, body)
		return m.Elapsed()
	}
	plainStatic := run(false)
	forced := run(true)
	if forced == plainStatic {
		t.Error("override did not change the modeled schedule on skewed work")
	}
	if math.IsNaN(forced) || forced <= 0 {
		t.Errorf("forced duration bogus: %v", forced)
	}
}

// numaRegion charges a degree-skewed workload under the given policy,
// socket count, and worker count, returning modeled duration and cost.
func numaRegion(sched Sched, threads, sockets, workers int) (float64, Cost) {
	m := New(testModel(), threads)
	m.SetWorkers(workers)
	if sockets > 0 {
		m.SetSockets(sockets)
	}
	m.ParallelFor(1024, 8, sched, func(lo, hi int, w *W) {
		w.Cycles(float64((hi - lo) * (lo + 7)))
		w.Bytes(float64(hi-lo) * 48)
		w.Atomics(float64(lo % 5))
	})
	var total Cost
	for _, r := range m.Trace() {
		total.Add(r.Cost)
	}
	return m.Elapsed(), total
}

// TestNUMASocketsOneMatchesSteal: with one virtual socket (explicit or
// default) the NUMA policy is byte-identical to Steal — durations and
// charged costs included.
func TestNUMASocketsOneMatchesSteal(t *testing.T) {
	for _, threads := range []int{1, 2, 8, 72} {
		stealSec, stealCost := numaRegion(Steal, threads, 0, 1)
		for _, sockets := range []int{0, 1} {
			numaSec, numaCost := numaRegion(NUMA, threads, sockets, 1)
			if numaSec != stealSec {
				t.Errorf("threads=%d sockets=%d: numa %v != steal %v", threads, sockets, numaSec, stealSec)
			}
			if numaCost != stealCost {
				t.Errorf("threads=%d sockets=%d: numa cost %+v != steal cost %+v", threads, sockets, numaCost, stealCost)
			}
		}
	}
}

// TestNUMADurationsIndependentOfWorkers: the NUMA policy joins the
// worker-count determinism contract at every socket count.
func TestNUMADurationsIndependentOfWorkers(t *testing.T) {
	for _, sockets := range []int{1, 2, 4} {
		base, baseCost := numaRegion(NUMA, 8, sockets, 1)
		for _, workers := range []int{1, 2, 4, 16} {
			for rep := 0; rep < 3; rep++ {
				got, cost := numaRegion(NUMA, 8, sockets, workers)
				if got != base {
					t.Fatalf("sockets=%d workers=%d rep=%d: modeled %v != %v", sockets, workers, rep, got, base)
				}
				if cost != baseCost {
					t.Fatalf("sockets=%d workers=%d: charged cost %+v != %+v", sockets, workers, cost, baseCost)
				}
			}
		}
	}
}

// TestLocalityPenaltyChargesRemoteSteals: when the only imbalance
// sits on one socket (every heavy chunk is owned by lane 0), the
// other sockets' thieves must cross to rebalance, and at sockets > 1
// the steal simulation charges penalties it did not charge at
// sockets = 1 — for both victim orders, since the crossing is
// unavoidable. Charged bytes grow too (the remote-chunk-access
// multiplier), not just the modeled seconds.
func TestLocalityPenaltyChargesRemoteSteals(t *testing.T) {
	region := func(sched Sched, sockets int) (float64, Cost) {
		m := New(testModel(), 16)
		m.SetSockets(sockets)
		m.ParallelFor(1024, 8, sched, func(lo, hi int, w *W) {
			if (lo/8)%16 == 0 { // all heavy chunks owned by lane 0
				w.Cycles(5e5)
				w.Bytes(2e5)
			} else {
				w.Cycles(200)
				w.Bytes(96)
			}
		})
		var total Cost
		for _, r := range m.Trace() {
			total.Add(r.Cost)
		}
		return m.Elapsed(), total
	}
	for _, sched := range []Sched{Steal, NUMA} {
		sec1, cost1 := region(sched, 1)
		sec4, cost4 := region(sched, 4)
		if sec4 <= sec1 {
			t.Errorf("%v: 4 sockets (%v) not slower than 1 socket (%v)", sched, sec4, sec1)
		}
		if cost4.Bytes <= cost1.Bytes {
			t.Errorf("%v: remote bytes not charged: %v <= %v", sched, cost4.Bytes, cost1.Bytes)
		}
	}
}

// TestTwoLevelBeatsFlatOnSkew is the study's headline regime: when
// every socket has its own imbalance (here one heavy-owner lane per
// socket block — the per-socket hub pattern of a partitioned power-law
// graph), a socket's idle lanes can rebalance locally. Flat stealing
// probes victims regardless of socket and pays the remote-chunk
// penalties for avoidable crossings; two-level stealing drains the
// local heavy lane first and models faster under the same locality
// model (same sockets, same penalties).
func TestTwoLevelBeatsFlatOnSkew(t *testing.T) {
	region := func(sched Sched, sockets int) float64 {
		m := New(testModel(), 16)
		m.SetSockets(sockets)
		m.ParallelFor(1024, 8, sched, func(lo, hi int, w *W) {
			if (lo/8)%4 == 0 { // heavy owners: lanes 0, 4, 8, 12
				w.Cycles(4e5)
				w.Bytes(2e5)
			} else {
				w.Cycles(200)
				w.Bytes(96)
			}
		})
		return m.Elapsed()
	}
	for _, sockets := range []int{2, 4} {
		flat := region(Steal, sockets)
		twoLevel := region(NUMA, sockets)
		if twoLevel >= flat {
			t.Errorf("sockets=%d: two-level (%v) not faster than flat (%v)", sockets, twoLevel, flat)
		}
	}
}

// TestSetRemotePenaltyOverridesModel: on a memory-bound region whose
// steals cross sockets, the remote-chunk-access multiplier is live —
// a stiffer Spec.RemotePenalty (SetRemotePenalty) lengthens the
// modeled duration, and 0 falls back to the model constant.
func TestSetRemotePenaltyOverridesModel(t *testing.T) {
	region := func(penalty float64) float64 {
		m := New(testModel(), 16)
		m.SetSockets(4)
		m.SetRemotePenalty(penalty)
		m.ParallelFor(1024, 8, Steal, func(lo, hi int, w *W) {
			if (lo/8)%16 == 0 { // all heavy chunks owned by lane 0
				w.Cycles(5e5)
				w.Bytes(5e7) // deep into the bandwidth roofline
			} else {
				w.Cycles(200)
				w.Bytes(96)
			}
		})
		return m.Elapsed()
	}
	def := region(0)
	if modelDefault := region(testModel().RemoteBytesFactor); modelDefault != def {
		t.Errorf("penalty 0 (%v) does not fall back to the model constant (%v)", def, modelDefault)
	}
	if stiff := region(3); stiff <= def {
		t.Errorf("remote penalty 3 (%v) not slower than the 1.7 default (%v)", stiff, def)
	}
	if soft := region(1); soft >= def {
		t.Errorf("remote penalty 1 (%v) not faster than the 1.7 default (%v)", soft, def)
	}
}

// simSteal runs stealLanesTopo on fresh buffers, as commitRegion does
// on the machine's zeroed ones.
func simSteal(costs []Cost, t, sockets int, remoteBytes, remoteSteal float64, twoLevel bool, model *Model) (lanes []Cost, execLane []int) {
	lanes, execLane = make([]Cost, t), make([]int, len(costs))
	stealLanesTopo(costs, lanes, make([]float64, t), execLane, make([]int, t), make([]int, t),
		sockets, remoteBytes, remoteSteal, twoLevel, model)
	return lanes, execLane
}

// TestStealLanesTopoConservesChunkCosts: penalties add work but the
// original chunk cycles are never dropped, and every configuration is
// a pure function of its inputs (two calls agree exactly).
func TestStealLanesTopoConservesChunkCosts(t *testing.T) {
	model := testModel()
	costs := make([]Cost, 100)
	var wantCycles float64
	for i := range costs {
		costs[i] = Cost{Cycles: float64(i * 11), Bytes: float64(i % 7 * 32), Atomics: float64(i % 3)}
		wantCycles += costs[i].Cycles
	}
	for _, twoLevel := range []bool{false, true} {
		for _, threads := range []int{1, 3, 8, 72} {
			for _, sockets := range []int{1, 2, 4} {
				lanes, exec := simSteal(costs, threads, sockets, 1.7, 120, twoLevel, &model)
				again, execAgain := simSteal(costs, threads, sockets, 1.7, 120, twoLevel, &model)
				for c := range exec {
					if exec[c] != execAgain[c] {
						t.Fatalf("twoLevel=%v threads=%d sockets=%d: exec lane of chunk %d not deterministic: %d vs %d",
							twoLevel, threads, sockets, c, exec[c], execAgain[c])
					}
					if exec[c] < 0 || exec[c] >= threads {
						t.Fatalf("chunk %d executed by out-of-range lane %d", c, exec[c])
					}
				}
				var got, rep Cost
				for l := range lanes {
					got.Add(lanes[l])
					rep.Add(again[l])
				}
				if got != rep {
					t.Errorf("twoLevel=%v threads=%d sockets=%d: not deterministic: %+v vs %+v", twoLevel, threads, sockets, got, rep)
				}
				// RemoteStealCycles lands in Cycles, so conservation
				// is >=; Bytes likewise only grow (factor >= 1).
				if got.Cycles < wantCycles {
					t.Errorf("twoLevel=%v threads=%d sockets=%d: cycles dropped: %v < %v", twoLevel, threads, sockets, got.Cycles, wantCycles)
				}
			}
		}
	}
}
