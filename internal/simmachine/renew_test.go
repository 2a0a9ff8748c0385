package simmachine

import (
	"slices"
	"testing"

	"github.com/hpcl-repro/epg/internal/alloctest"
	"github.com/hpcl-repro/epg/internal/parallel"
)

// configure sets every Machine knob away from New's: workers, sockets,
// remote penalty, first-touch placement, a three-node cluster with an
// owner table over the program's vertex regions, adaptive grains, a
// sched override and, in an epg_permute build, a seeded chunk order.
func configure(m *Machine) {
	owner := make([]int16, renewN)
	for i := range owner {
		owner[i] = int16(i % 3)
	}
	m.SetWorkers(3)
	m.SetSockets(2)
	m.SetRemotePenalty(3)
	m.SetPlacement(true)
	m.SetCluster(3, owner)
	m.SetGrainPolicy(parallel.GrainAdaptive)
	m.SetSchedOverride(Steal)
	setChunkOrder(m, 5)
}

// renewN is the vertex-region size of renewProgram.
const renewN = 1 << 13

// lopsided loads only the chunks a 16-lane machine's first eight lanes
// own, so under the steal policies the other eight steal them: across
// sockets when there are two.
func lopsided(lo, hi, chunk, worker int, w *W) {
	if chunk%16 < 8 {
		w.Cycles(1e5)
		w.Bytes(float64(64 * (hi - lo)))
	}
}

// renewProgram runs every kind of region on a 16-thread machine, at one
// real worker so the chunks of a region run in one order it can return:
// index order, or in an epg_permute build the machine's chunk order.
// Its grain base is not what the adaptive policy picks, and its first
// region runs one page a chunk on lanes 0-7, so a fresh machine places
// every page on socket 0.
func renewProgram(m *Machine) (ran []int) {
	m.SetWorkers(1)
	m.ParallelForChunks(renewN, PlacementPageItems, Static, skewed)
	m.FileRead(1<<20, true)
	m.Serial(serialBody)
	for _, sched := range allScheds {
		g := m.Grain(renewN, 256, 1)
		m.ParallelForChunks(renewN, g, sched, func(lo, hi, chunk, worker int, w *W) {
			skewed(lo, hi, chunk, worker, w)
			ran = append(ran, chunk)
		})
		m.ParallelForChunks(renewN, 64, sched, lopsided)
		m.ChargeUniform(renewN/2, 32, sched, Cost{Cycles: 3, Bytes: 8})
	}
	m.ForEachThread(perThread)
	m.Sleep(1e-3)
	return ran
}

// A renewed machine is a new one: whatever a run set on it, Renew puts
// back New's settings, so the same regions record the same trace and
// clock, byte for byte, as on a machine New made — with no setting of
// the earlier run, with one knob that would wake a stale other one
// (sockets: placement), and with every setting made again (the page
// owners the earlier run placed on socket 1 are gone). The generation
// advances past every cursor of the earlier run, the renew itself
// allocates nothing, and renewing from inside a region panics.
func TestRenewMatchesNew(t *testing.T) {
	const threads = 16
	m := New(testModel(), 4)
	configure(m)
	// Static pages: chunk c on lane c mod 4, so pages 2 and 3 of every
	// four are first touched on socket 1.
	m.SetSchedOverride(Static)
	m.ParallelForChunks(renewN, PlacementPageItems, Static, skewed)
	renewProgram(m)
	m.SetTracing(false)
	for _, setup := range []struct {
		name string
		set  func(*Machine)
	}{
		{"no knob", func(*Machine) {}},
		{"sockets", func(m *Machine) { m.SetSockets(2) }},
		{"every knob", configure},
	} {
		gen := m.Generation()
		if got := alloctest.BytesPerRun(1, func() { m.Renew(testModel(), threads) }); got != 0 {
			t.Errorf("%s: Renew allocates %d B", setup.name, got)
		}
		m.Renew(testModel(), threads) // at the test's GOMAXPROCS, as New below
		if m.Generation() <= gen {
			t.Errorf("%s: Renew left the generation at %d", setup.name, m.Generation())
		}
		fresh := New(testModel(), threads)
		if m.Workers() != fresh.Workers() || m.Threads() != fresh.Threads() {
			t.Errorf("%s: renewed workers/threads %d/%d, New's %d/%d",
				setup.name, m.Workers(), m.Threads(), fresh.Workers(), fresh.Threads())
		}
		setup.set(m)
		setup.set(fresh)
		ran, want := renewProgram(m), renewProgram(fresh)
		if !slices.Equal(ran, want) {
			t.Errorf("%s: chunks ran in order %v…, New's in %v…", setup.name, ran[:8], want[:8])
		}
		if !slices.Equal(m.Trace(), fresh.Trace()) || m.Elapsed() != fresh.Elapsed() {
			t.Errorf("%s: renewed machine recorded\n%+v (%v s), New's\n%+v (%v s)",
				setup.name, m.Trace(), m.Elapsed(), fresh.Trace(), fresh.Elapsed())
		}
	}
	const want = "simmachine: machine renewed inside a region"
	if got := mustPanic(t, "Renew inside a region", func() { m.Serial(func(*W) { m.Renew(testModel(), threads) }) }); got != want {
		t.Errorf("Renew inside a region panicked with %v, want %q", got, want)
	}
}
