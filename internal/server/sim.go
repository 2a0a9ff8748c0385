package server

import (
	"fmt"
	"math"
	"sort"

	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/xrand"
)

// SimConfig parameterizes one deterministic load run: a Poisson
// arrival stream of point queries pushed through the full admission /
// queue / deadline / degradation pipeline in virtual time.
type SimConfig struct {
	// Servers is the number of virtual executors. Service times come
	// from ONE real bench executor (any executor reports the same bits
	// for a query), so the simulation is single-threaded and exact.
	Servers int
	// Admit is the admission configuration; the token bucket runs on
	// virtual time.
	Admit AdmitConfig
	// DeadlineSec is the modeled service budget applied to every query.
	DeadlineSec float64
	// OfferedQPS is the Poisson arrival rate in virtual queries/sec.
	OfferedQPS float64
	// NumQueries is the total offered load.
	NumQueries int
	// Seed drives arrivals and query content.
	Seed uint64
}

// SimStats is the outcome ledger of one load run. Every field is a
// pure function of (dataset, SimConfig): bit-identical across runs,
// worker counts, and hosts.
type SimStats struct {
	Offered          int
	Admitted         int
	ShedQueueFull    int
	ShedThrottled    int
	Completed        int
	Degraded         int
	DeadlineExceeded int
	Errors           int
	MaxDepth         int
	// Modeled service-time percentiles over admitted queries, in
	// microseconds (deadline-exceeded queries count at their
	// truncation time).
	P50US, P99US, MeanUS float64
}

// Conservation checks the exact-accounting invariants; the tests and
// the loadgen assert it after every run.
func (st SimStats) Conservation() error {
	if st.Admitted+st.ShedQueueFull+st.ShedThrottled != st.Offered {
		return fmt.Errorf("server: admitted %d + shed %d+%d != offered %d",
			st.Admitted, st.ShedQueueFull, st.ShedThrottled, st.Offered)
	}
	if st.Completed+st.DeadlineExceeded+st.Errors != st.Admitted {
		return fmt.Errorf("server: completed %d + deadline %d + errors %d != admitted %d",
			st.Completed, st.DeadlineExceeded, st.Errors, st.Admitted)
	}
	return nil
}

// simQuery is one generated arrival.
type simQuery struct {
	at float64
	q  Query
}

// genQueries draws the arrival stream: exponential interarrivals at
// OfferedQPS and a fixed op mix (40% BFS, 20% SSSP on weighted
// datasets — folded into BFS otherwise — 15% PR, 15% WCC, 10% 2-hop).
func genQueries(rng *xrand.RNG, n int, cfg SimConfig, weighted bool) []simQuery {
	out := make([]simQuery, 0, cfg.NumQueries)
	t := 0.0
	for i := 0; i < cfg.NumQueries; i++ {
		t += rng.Exp() / cfg.OfferedQPS
		q := Query{Source: graph.VID(rng.Intn(n)), Target: graph.VID(rng.Intn(n))}
		switch r := rng.Float64(); {
		case r < 0.40:
			q.Op = OpBFS
		case r < 0.60:
			if weighted {
				q.Op = OpSSSP
			} else {
				q.Op = OpBFS
			}
		case r < 0.75:
			q.Op = OpPR
		case r < 0.90:
			q.Op = OpWCC
		default:
			q.Op = OpKHop
			q.K = 2
		}
		out = append(out, simQuery{at: t, q: q})
	}
	return out
}

// Simulate runs the virtual-time discrete-event loop: arrivals meet
// the live daemon's admission controller (admitter.tryAdmit on virtual
// time, its depth ledger equal to the queue's length at every decision),
// queued queries start as virtual servers free up, and each service
// consumes the bench executor's modeled duration for that query.
// Single-threaded and wall-clock-free end to end.
func Simulate(b *Bench, cfg SimConfig) (SimStats, error) {
	if cfg.Servers < 1 {
		cfg.Servers = 1
	}
	if err := cfg.Admit.validate(); err != nil {
		return SimStats{}, err
	}
	if cfg.OfferedQPS <= 0 || cfg.NumQueries <= 0 {
		return SimStats{}, fmt.Errorf("server: sim needs positive offered qps and query count")
	}
	rng := xrand.New(cfg.Seed)
	arrivals := genQueries(rng, b.n, cfg, b.weighted)

	var st SimStats
	adm := newAdmitter(cfg.Admit)
	freeAt := make([]float64, cfg.Servers)
	type queued struct {
		q        Query
		degraded bool
	}
	var queue []queued
	var serviceUS []float64

	serve := func(srv int, start float64, item queued) {
		resp := b.Run(item.q, cfg.DeadlineSec, item.degraded)
		switch resp.Status {
		case StatusOK:
			st.Completed++
			if resp.Degraded {
				st.Degraded++
			}
		case StatusDeadline:
			st.DeadlineExceeded++
		default:
			st.Errors++
		}
		serviceUS = append(serviceUS, resp.ModeledSec*1e6)
		freeAt[srv] = start + resp.ModeledSec
	}
	// earliestFree returns the server with the smallest free time
	// (lowest index on ties — deterministic).
	earliestFree := func() int {
		best := 0
		for s := 1; s < len(freeAt); s++ {
			if freeAt[s] < freeAt[best] {
				best = s
			}
		}
		return best
	}
	// drainUntil starts queued queries on servers that free up at or
	// before time t.
	drainUntil := func(t float64) {
		for len(queue) > 0 {
			s := earliestFree()
			if freeAt[s] > t {
				return
			}
			item := queue[0]
			queue = queue[1:]
			adm.release()
			serve(s, freeAt[s], item)
		}
	}

	for _, a := range arrivals {
		drainUntil(a.at)
		st.Offered++
		dec := adm.tryAdmit(a.at, a.q.degradable(b.weighted))
		switch dec {
		case shedQueueFull:
			st.ShedQueueFull++
			continue
		case shedThrottled:
			st.ShedThrottled++
			continue
		}
		st.Admitted++
		item := queued{q: a.q, degraded: dec == admitDegraded}
		if s := earliestFree(); freeAt[s] <= a.at && len(queue) == 0 {
			adm.release()
			serve(s, a.at, item) // idle server: straight to service
			continue
		}
		queue = append(queue, item)
		// Queued-only high-water mark: the admitter's own also counts a
		// query that went straight to service.
		if len(queue) > st.MaxDepth {
			st.MaxDepth = len(queue)
		}
	}
	// End of arrivals: everything admitted still runs.
	drainUntil(math.Inf(1))

	sort.Float64s(serviceUS)
	st.P50US = percentile(serviceUS, 50)
	st.P99US = percentile(serviceUS, 99)
	if len(serviceUS) > 0 {
		sum := 0.0
		for _, v := range serviceUS {
			sum += v
		}
		st.MeanUS = sum / float64(len(serviceUS))
	}
	if err := st.Conservation(); err != nil {
		return st, err
	}
	return st, nil
}

// percentile returns the nearest-rank percentile of sorted values
// (0 when empty).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.9999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// CalibrateCapacity estimates the bench's service capacity in
// queries/sec for cfg.Servers virtual executors: it runs `probes`
// representative queries (same generator as the load stream, no
// budget, no degradation) and divides servers by the mean modeled
// service time. Deterministic, so offered-vs-capacity multipliers in
// the study are exact.
func CalibrateCapacity(b *Bench, servers, probes int, seed uint64) float64 {
	if probes < 1 {
		probes = 16
	}
	rng := xrand.New(seed)
	qs := genQueries(rng, b.n, SimConfig{NumQueries: probes, OfferedQPS: 1}, b.weighted)
	total := 0.0
	for _, a := range qs {
		resp := b.Run(a.q, 0, false)
		total += resp.ModeledSec
	}
	mean := total / float64(probes)
	if mean <= 0 {
		return 0
	}
	return float64(servers) / mean
}
