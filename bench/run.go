package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"time"
)

// setupPasses is how many identical set-up passes a run makes; setup_s
// is their median, so no single pass decides it.
const setupPasses = 5

// defaultGraphSeed draws the instance every run measures: each
// workload's Kronecker graph and what costs differently from one draw
// to the next on it — the traversal sources of kernels and serve-*, and
// serve-mutate's mutation stream. The run's own seed draws the rest (the
// order of the schedule, query targets, which client sends what,
// ingest's mutation stream, the harness's root and batch seeds), none of
// which changes how much work a round is. Measured with everything
// drawn from the run's seed: two Kronecker graphs differ by 35 % in the
// headline p95 and 10 % in round time, two draws of ten SSSP sources by
// 5 % in bytes allocated, two mutation streams by 7 % — input variance
// that the acceptance driver, which compares ten seeds, reads as noise,
// and that no bound of 0.02 on alloc_mb survives. -graph-seed measures
// another instance.
const defaultGraphSeed = 1

// config is what one run is told to do.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// graphSeed draws the instance; zero means defaultGraphSeed.
	graphSeed uint64
	// scaleDelta and rounds exist for the smoke test: smaller graphs
	// and a fixed, small round count. Zero means the sized schedule.
	scaleDelta int
	rounds     int
	// traceOut is where the traced run writes its Chrome trace.
	traceOut string
}

// instance returns the seed the run's instance is drawn from.
func (cfg config) instance() uint64 {
	if cfg.graphSeed != 0 {
		return cfg.graphSeed
	}
	return defaultGraphSeed
}

// A workload is a fixed op schedule over inputs made from the seed.
type workload interface {
	name() string
	// headline names the latency class op_p95_ms reports.
	headline() string
	// setup makes the inputs and builds, loads or starts everything the
	// rounds need; spans land on l when traced.
	setup(l *lane) error
	// round runs the schedule once. With r.verify set it also validates
	// every output against the references.
	round(r *rec)
	// finish makes the checks that must follow the last timed round;
	// failures land on r.
	finish(r *rec)
	// rungs is the workload's rung pass: short direct measurements of
	// layers its rounds do not call by themselves, and of quantities
	// (bytes allocated per call) that cannot be read while clients run.
	// Only the traced run makes rung passes; they never feed an
	// end-to-end number.
	rungs(r *rec)
	// close releases what setup started.
	close()
}

// roundStat is what the runner measures around one round.
type roundStat struct {
	wall   float64 // seconds
	cpu    float64 // user+sys seconds
	alloc  float64 // bytes
	rssMB  float64 // resident-set high-water mark of the round
	traced bool
}

func (r roundStat) wallSec() float64 { return r.wall }
func (r roundStat) cpuSec() float64  { return r.cpu }

// measured is everything one workload's rounds produced.
type measured struct {
	setups []float64
	warm   *rec // the warm-up (verification) round
	rounds []roundStat
	recs   []*rec // one per timed round, parallel to rounds
	steal  float64
}

// plan is the shape of one measurement.
type plan struct {
	setupPasses int
	rounds      int
	// tr, when non-nil, records spans. With alternate set, only odd
	// rounds are traced, so traced and untraced rounds of one process
	// interleave and their ratio is the tracing overhead.
	tr        *tracer
	alternate bool
}

// measure runs w under p: set-up passes, the warm-up round that is also
// the verification round, then the timed rounds with a collection
// (pages returned to the OS) before each, outside the timed span.
func measure(w workload, p plan) (*measured, error) {
	m := &measured{}
	l := p.tr.lane()
	for pass := 0; pass < p.setupPasses; pass++ {
		if pass > 0 {
			w.close()
		}
		debug.FreeOSMemory() // every pass pays the first pass's page faults
		var sl *lane
		if pass == p.setupPasses-1 {
			sl = l // trace the pass whose state the rounds use
		}
		h := sl.begin("bench", "setup."+w.name())
		t0 := time.Now()
		err := w.setup(sl)
		m.setups = append(m.setups, time.Since(t0).Seconds())
		sl.end(h)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name(), err)
		}
	}
	m.warm = newRec(nil, true)
	w.round(m.warm)

	steal0, total0, stealErr := cpuTicks()
	for i := 0; i < p.rounds; i++ {
		// Collect and hand the freed pages back, so that every round
		// starts from the live heap alone. With a bare runtime.GC() the
		// pages the scavenger had not yet released stayed resident, and
		// how far it gets depends on how busy the host is: twelve runs of
		// study read a peak_rss_mb of 15.7-22.2 MB (spread 9 %), against
		// 15.9-17.3 MB (2 %) this way. The price is the page faults of
		// re-touching the heap inside the round: 6 % of ingest's round
		// (100 MB resident), nothing measurable on the other four.
		debug.FreeOSMemory()
		var rl *lane
		if p.tr != nil && (!p.alternate || i%2 == 1) {
			rl = l
			rl.round = i + 1
		}
		r := newRec(rl, false)
		// Where the mark cannot be reset, a round's reading is the
		// process's peak so far; say so once and carry on.
		if err := resetPeakRSS(); err != nil && i == 0 {
			fmt.Fprintf(os.Stderr, "bench: peak_rss_mb is the process peak, not the round's: %v\n", err)
		}
		a0, c0 := allocBytes(), cpuSeconds()
		h := rl.begin("bench", "round."+w.name())
		t0 := time.Now()
		w.round(r)
		wall := time.Since(t0).Seconds()
		rl.end(h)
		c1, a1 := cpuSeconds(), allocBytes()
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		if r.sum != m.warm.sum {
			r.fail("checksum", fmt.Errorf("round %d outputs differ from the warm-up round's (%x vs %x)", i+1, r.sum, m.warm.sum))
		}
		m.rounds = append(m.rounds, roundStat{wall: wall, cpu: c1 - c0, alloc: float64(a1 - a0), rssMB: rss, traced: rl != nil})
		m.recs = append(m.recs, r)
	}
	w.finish(m.warm)
	if steal1, total1, err := cpuTicks(); err == nil && stealErr == nil && total1 > total0 {
		m.steal = (steal1 - steal0) / (total1 - total0)
	}
	return m, nil
}

// pick returns f over the timed rounds, optionally only the traced or
// only the untraced ones.
func (m *measured) pick(f func(roundStat) float64, traced, untraced bool) []float64 {
	var out []float64
	for _, rs := range m.rounds {
		if (rs.traced && traced) || (!rs.traced && untraced) {
			out = append(out, f(rs))
		}
	}
	return out
}

// lat pools one class's latencies (seconds) over the timed rounds.
func (m *measured) lat(class string) []float64 {
	var out []float64
	for _, r := range m.recs {
		out = append(out, r.lat[class]...)
	}
	return out
}

// vals pools one named sample series over the timed rounds.
func (m *measured) vals(name string) []float64 {
	var out []float64
	for _, r := range m.recs {
		out = append(out, r.vals[name]...)
	}
	return out
}

// counts sums ops and failures over the warm-up and timed rounds.
func (m *measured) counts() (ops, failed int, errs []string) {
	for _, r := range append([]*rec{m.warm}, m.recs...) {
		ops += r.ops
		failed += r.failed
		errs = append(errs, r.errs...)
	}
	return ops, failed, errs
}
