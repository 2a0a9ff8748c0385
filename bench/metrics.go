package main

import (
	"fmt"
	"sort"
	"strings"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names one metric, its unit, and whether lower or higher is
// better; BENCHMARK.json carries the same triple.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it counts as a regression; per-layer
	// metrics have none.
	bound float64
}

const (
	lower  = "lower"
	higher = "higher"
	mib    = 1 << 20
)

// endToEndDefs are BENCHMARK.json's end_to_end metrics: the ones whose
// ten-seed spread stays inside their bound on a shared host, which the
// acceptance driver requires of every bounded metric. The bounds are the
// issue's, except setup_s: the driver exempts its spread but gates the
// gap between two sets of runs minutes apart, across which this host
// shifts by up to 20 %, so it has the widest bound allowed.
var endToEndDefs = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"alloc_mb", "MB", lower, 0.02},
	{"peak_rss_mb", "MB", lower, 0.10},
}

// reportedDefs are the wall-clock metrics every untraced run also
// measures and prints. Their spread over ten runs of identical code and
// inputs is 5-13 % on the development host (AA.md), above the 0.10 the
// issue allows a bound, so by its rule they are not given a wider bound
// but taken out of the gated set: a run prints and saves them, -aa and
// -compare judge them against bound (the issue's 0.10) with the verdict
// "unresolved" where the spread exceeds it, and the traced run reports
// them per workload as bench.<workload>.* per-layer metrics.
var reportedDefs = []metricDef{
	{"round_s", "s", lower, 0.10},
	{"op_p95_ms", "ms", lower, 0.10},
	{"cpu_s", "s", lower, 0.10},
}

// measuredDefs lists all six in the order the tables print them.
var measuredDefs = []metricDef{
	endToEndDefs[0], reportedDefs[0], reportedDefs[1], reportedDefs[2], endToEndDefs[1], endToEndDefs[2],
}

// endToEnd derives the six metrics of an untraced measurement.
func endToEnd(m *measured, headline string) (map[string]value, error) {
	p95, err := percentile(m.lat(headline), 95)
	if err != nil {
		return nil, fmt.Errorf("headline op %q: %w", headline, err)
	}
	all := func(f func(roundStat) float64) float64 { return median(m.pick(f, true, true)) }
	return map[string]value{
		"setup_s":     {median(m.setups), "s"},
		"round_s":     {all(roundStat.wallSec), "s"},
		"op_p95_ms":   {p95 * 1e3, "ms"},
		"cpu_s":       {all(roundStat.cpuSec), "s"},
		"alloc_mb":    {all(func(r roundStat) float64 { return r.alloc }) / mib, "MB"},
		"peak_rss_mb": {all(func(r roundStat) float64 { return r.rssMB }), "MB"},
	}, nil
}

// ladder is everything the traced run collected: each workload's
// measurement and rung pass, and every span.
type ladder struct {
	named string // the workload the run was asked for
	ms    map[string]*measured
	rungs map[string]*rec
	spans []span
	errs  []string
}

// miss records a metric whose samples are absent and returns 0, so one
// missing series is reported by name instead of aborting the ladder.
func (c *ladder) miss(format string, args ...any) float64 {
	c.errs = append(c.errs, fmt.Sprintf(format, args...))
	return 0
}

// lat is the median latency (seconds) of a class over a workload's
// timed rounds.
func (c *ladder) lat(wl, class string) float64 {
	xs := c.ms[wl].lat(class)
	if len(xs) == 0 {
		return c.miss("%s: no %q ops", wl, class)
	}
	return median(xs)
}

// sum totals a named sample series over a workload's timed rounds.
func (c *ladder) sum(wl, name string) float64 {
	xs := c.ms[wl].vals(name)
	if len(xs) == 0 {
		return c.miss("%s: no %q samples", wl, name)
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// latSum totals a class's latencies over a workload's timed rounds.
func (c *ladder) latSum(wl, class string) float64 {
	total := 0.0
	for _, x := range c.ms[wl].lat(class) {
		total += x
	}
	if total == 0 {
		return c.miss("%s: no %q ops", wl, class)
	}
	return total
}

// first is a per-round constant (an edge count, a byte count).
func (c *ladder) first(wl, name string) float64 {
	xs := c.ms[wl].vals(name)
	if len(xs) == 0 {
		return c.miss("%s: no %q samples", wl, name)
	}
	return xs[0]
}

// rung is the median of a rung-pass series (vals first, then op
// latencies in seconds).
func (c *ladder) rung(wl, name string) float64 {
	r := c.rungs[wl]
	if r == nil {
		return c.miss("%s: no rung pass", wl)
	}
	if xs := r.vals[name]; len(xs) > 0 {
		return median(xs)
	}
	if xs := r.lat[name]; len(xs) > 0 {
		return median(xs)
	}
	return c.miss("%s rung pass: no %q samples", wl, name)
}

// span is the median duration (seconds) of the spans with a name.
func (c *ladder) span(name string) float64 {
	var xs []float64
	for _, s := range c.spans {
		if s.Name == name {
			xs = append(xs, (s.End - s.Start).Seconds())
		}
	}
	if len(xs) == 0 {
		return c.miss("no span %q", name)
	}
	return median(xs)
}

// p95 of a class over a workload's timed rounds.
func (c *ladder) p95(wl, class string) float64 {
	p, err := percentile(c.ms[wl].lat(class), 95)
	if err != nil {
		return c.miss("%s %s: %v", wl, class, err)
	}
	return p
}

// ratio guards a division whose denominator a missing series left 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// kernelPairs are the 16 engine/kernel classes of the kernels workload.
func kernelPairs() []string {
	var out []string
	for _, p := range kernelPlans {
		for _, alg := range p.algs {
			out = append(out, p.class(alg))
		}
	}
	return out
}

// modeledExact reports whether a kernel class's modeled seconds repeat
// bit for bit: everything but the two racy (non-synchronous) SSSPs.
func modeledExact(class string) bool { return class != "gap.sssp" && class != "graphbig.sssp" }

// layerMetric is one per-layer metric, its row of the interaction table,
// and how to read it off the ladder.
type layerMetric struct {
	metricDef
	row interaction
	get func(c *ladder) float64
}

// layerMetrics lists the per-layer metrics in report order. Layer =
// package name.
func layerMetrics() []layerMetric {
	var out []layerMetric
	add := func(name, unit, better string, row interaction, get func(c *ladder) float64) {
		out = append(out, layerMetric{metricDef{name: name, unit: unit, better: better}, row, get})
	}
	const K, I, S, SR, SM = wlK, wlI, wlS, wlSR, wlSM

	// parallel: rung pass of kernels.
	for _, s := range []string{"static", "dynamic", "steal", "numa"} {
		add("parallel.for_"+s+"_ns_per_chunk", "ns", lower, rowDispatch, func(c *ladder) float64 { return c.rung(K, "parallel.for_"+s) })
	}
	add("parallel.pool_run_ns", "ns", lower, rowDispatch, func(c *ladder) float64 { return c.rung(K, "parallel.pool_run") })
	for _, s := range []string{"scan", "bitmap_toslice", "chunkqueue_drain", "queue_push"} {
		row := rowKernelBFS // frontier primitives
		if s == "scan" {
			row = rowBuild // the CSR builders' prefix sum
		}
		// ns per item -> million items per second.
		add("parallel."+s+"_mitems_per_s", "Mitems/s", higher, row, func(c *ladder) float64 { return ratio(1e3, c.rung(K, "parallel."+s)) })
	}

	// kronecker, snap, graph: spans of ingest.
	add("kronecker.generate_medges_per_s", "Medges/s", higher, rowBuild, func(c *ladder) float64 {
		return ratio(c.first(I, "edges"), c.lat(I, "kronecker.generate")) / 1e6
	})
	for _, s := range []string{"write", "read"} {
		add("snap."+s+"_mb_per_s", "MB/s", higher, rowCodec, func(c *ladder) float64 {
			return ratio(c.first(I, "snap.bytes"), c.lat(I, "snap."+s)) / mib
		})
	}
	add("graph.build_csr_medges_per_s", "Medges/s", higher, rowBuild, func(c *ladder) float64 {
		return ratio(c.first(I, "edges"), c.lat(I, "graph.build_csr")) / 1e6
	})
	add("graph.build_csr_alloc_mb", "MB", lower, rowBuild, func(c *ladder) float64 { return c.rung(I, "graph.build_csr.alloc_b") / mib })
	add("graph.transpose_medges_per_s", "Medges/s", higher, rowBuild, func(c *ladder) float64 {
		return ratio(c.first(I, "csr.edges"), c.lat(I, "graph.transpose")) / 1e6
	})
	add("graph.compress_medges_per_s", "Medges/s", higher, rowCodec, func(c *ladder) float64 {
		return ratio(c.first(I, "csr.edges"), c.lat(I, "graph.compress")) / 1e6
	})
	add("graph.compress_ratio", "ratio", higher, rowCodec, func(c *ladder) float64 {
		return ratio(4*c.first(I, "csr.edges"), c.first(I, "compressed.bytes"))
	})
	for _, s := range []string{"decode", "vertexcut"} {
		add("graph."+s+"_medges_per_s", "Medges/s", higher, rowCodec, func(c *ladder) float64 {
			return ratio(c.first(I, "csr.edges"), c.lat(I, "graph."+s)) / 1e6
		})
	}
	add("graph.mutate_apply_kops_per_s", "kops/s", higher, rowMutateApply, func(c *ladder) float64 {
		return ratio(ingestBatchOps, c.lat(I, "graph.mutate_apply")) / 1e3
	})
	add("graph.mutate_apply_p50_ms", "ms", lower, rowMutateApply, func(c *ladder) float64 { return c.lat(I, "graph.mutate_apply") * 1e3 })
	add("graph.mutate_apply_alloc_mb", "MB", lower, rowMutateApply, func(c *ladder) float64 { return c.rung(I, "graph.mutate_apply.alloc_b") / mib })

	// engines: spans of kernels, plus the Streamer rung of serve-mutate.
	for _, class := range kernelPairs() {
		row := rowKernel
		if class == "gap.bfs" { // the kernel behind the server's bfs and khop queries
			row = rowKernelBFS
		}
		add("engines."+class+"_ms", "ms", lower, row, func(c *ladder) float64 { return c.lat(K, class) * 1e3 })
		add("engines."+class+"_wall_over_modeled", "ratio", lower, rowNone, func(c *ladder) float64 {
			return ratio(c.latSum(K, class), c.sum(K, class+".modeled_s"))
		})
	}
	for _, p := range kernelPlans {
		if !p.compress {
			add("engines."+p.key()+".load_build_ms", "ms", lower, rowBuild, func(c *ladder) float64 { return c.span("load_build."+p.key()) * 1e3 })
		}
	}
	for _, alg := range []string{"bfs", "sssp", "pr", "wcc"} {
		add("engines.gap."+alg+"_alloc_kb", "KB", lower, rowKernelAlloc, func(c *ladder) float64 { return c.rung(K, "gap."+alg+".alloc_b") / 1024 })
	}
	add("engines.gap.bfs_mteps", "MTEPS", higher, rowKernelBFS, func(c *ladder) float64 {
		return ratio(c.sum(K, "gap.bfs.edges"), c.latSum(K, "gap.bfs")) / 1e6
	})
	add("engines.graph500.bfs_mteps", "MTEPS", higher, rowKernel, func(c *ladder) float64 {
		return ratio(c.sum(K, "graph500.bfs.edges"), c.latSum(K, "graph500.bfs")) / 1e6
	})
	for _, s := range []string{"mutate", "incr_pr", "incr_wcc"} {
		add("engines.gap."+s+"_ms", "ms", lower, rowMutate, func(c *ladder) float64 { return c.rung(SM, "streamer."+s) * 1e3 })
	}

	// simmachine, power: rung pass of study; modeled seconds of kernels.
	for _, s := range []string{"static", "steal"} {
		add("simmachine.region_overhead_ns_per_chunk_"+s, "ns", lower, rowDispatch, func(c *ladder) float64 {
			return c.rung(S, "simmachine.region_"+s) - c.rung(S, "simmachine.bare_"+s)
		})
	}
	add("simmachine.modeled_s", "s", lower, rowNone, func(c *ladder) float64 {
		// One round's modeled seconds over the classes whose model time
		// repeats exactly.
		rounds := float64(len(c.ms[K].recs))
		total := 0.0
		for _, class := range kernelPairs() {
			if modeledExact(class) {
				total += c.sum(K, class+".modeled_s")
			}
		}
		return ratio(total, rounds)
	})
	add("power.measure_us", "us", lower, rowDispatch, func(c *ladder) float64 { return c.rung(S, "power.measure") / 1e3 })

	// harness, logfmt: spans of study.
	add("harness.run_p50_ms", "ms", lower, rowHarness, func(c *ladder) float64 { return c.lat(S, "harness.run") * 1e3 })
	add("harness.run_overhead_share", "ratio", lower, rowHarness, func(c *ladder) float64 {
		return 1 - ratio(c.sum(S, "harness.kernel_wall_s"), c.latSum(S, "harness.run")+c.latSum(S, "harness.stream_run"))
	})
	add("harness.sweep_ms", "ms", lower, rowHarness, func(c *ladder) float64 { return c.lat(S, "harness.sweep") * 1e3 })
	add("harness.stream_run_ms", "ms", lower, rowHarness, func(c *ladder) float64 { return c.lat(S, "harness.stream_run") * 1e3 })
	add("harness.resolve_dataset_ms", "ms", lower, rowHarness, func(c *ladder) float64 { return c.span("harness.resolve_dataset") * 1e3 })
	add("logfmt.roundtrip_us_per_result", "us", lower, rowHarness, func(c *ladder) float64 {
		return ratio(c.lat(S, "logfmt.roundtrip"), c.first(S, "logfmt.results")) * 1e6
	})

	// server: spans of serve-read and serve-mutate, and their rung passes.
	add("server.start_ms", "ms", lower, rowServerStart, func(c *ladder) float64 { return c.span("server.start") * 1e3 })
	add("server.sketch_build_ms", "ms", lower, rowMutate, func(c *ladder) float64 { return c.rung(SR, "server.sketch_build") / 1e6 })
	for _, op := range []string{"bfs", "sssp", "khop", "pr", "wcc"} {
		row := rowQuery
		if op == "pr" || op == "wcc" { // lookups: all overhead
			row = rowHTTP
		}
		add("server.http_"+op+"_p50_ms", "ms", lower, row, func(c *ladder) float64 { return c.lat(SR, "http."+op) * 1e3 })
	}
	add("server.submit_bfs_p50_ms", "ms", lower, rowQuery, func(c *ladder) float64 { return c.rung(SR, "submit.bfs") * 1e3 })
	add("server.submit_pr_p50_us", "us", lower, rowHTTP, func(c *ladder) float64 { return c.rung(SR, "submit.pr") * 1e6 })
	add("server.http_overhead_us", "us", lower, rowHTTP, func(c *ladder) float64 {
		return (c.lat(SR, "http.pr") - c.rung(SR, "submit.pr")) * 1e6
	})
	add("server.query_alloc_kb", "KB", lower, rowKernelAlloc, func(c *ladder) float64 { return c.rung(SR, "submit.bfs.alloc_b") / 1024 })
	add("server.mutate_p50_ms", "ms", lower, rowMutate, func(c *ladder) float64 { return c.lat(SM, "http.mutate") * 1e3 })
	add("server.mutate_alloc_mb", "MB", lower, rowMutate, func(c *ladder) float64 { return c.rung(SM, "submit.mutate.alloc_b") / mib })
	add("server.refresh_ms", "ms", lower, rowMutate, func(c *ladder) float64 { return c.rung(SR, "http.refresh") * 1e3 })
	add("server.read_p95_inflation", "ratio", lower, rowInflation, func(c *ladder) float64 {
		return ratio(c.p95(SM, "http.bfs"), c.p95(SR, "http.bfs"))
	})

	// bench: the wall-clock metrics the gated set could not hold (see
	// reportedDefs), over the traced run's few rounds of each workload,
	// and the run's own overhead and noise readings.
	for _, wl := range workloadNames {
		add("bench."+wl+".round_s", "s", lower, rowNone, func(c *ladder) float64 {
			return median(c.ms[wl].pick(roundStat.wallSec, true, true))
		})
		add("bench."+wl+".cpu_s", "s", lower, rowNone, func(c *ladder) float64 {
			return median(c.ms[wl].pick(roundStat.cpuSec, true, true))
		})
	}
	// Only the serving workloads' few traced rounds hold the 200 samples
	// a p95 needs.
	for _, wl := range []string{SR, SM} {
		add("bench."+wl+".op_p95_ms", "ms", lower, rowNone, func(c *ladder) float64 { return c.p95(wl, "http.bfs") * 1e3 })
	}
	add("bench.trace_overhead", "ratio", lower, rowNone, func(c *ladder) float64 {
		m := c.ms[c.named]
		return ratio(median(m.pick(roundStat.wallSec, true, false)), median(m.pick(roundStat.wallSec, false, true)))
	})
	add("bench.steal_share", "ratio", lower, rowNone, func(c *ladder) float64 { return c.ms[c.named].steal })
	return out
}

// layerShares returns, per workload, each layer's share of the traced
// rounds' time: self time of the layer's spans over the round spans'
// total. It is the attribution the workloads were chosen for, printed
// beside the metrics. Two concurrent clients each fill the round, so a
// serving workload's shares can sum to 2.
func layerShares(spans []span) map[string]map[string]float64 {
	byWorkload := map[string][]span{}
	roundOf := map[int]string{} // round span id -> workload
	for _, s := range spans {
		if wl, ok := strings.CutPrefix(s.Name, "round."); ok && s.Layer == "bench" {
			roundOf[s.ID] = wl
		}
	}
	// A span belongs to the workload of the round span above it.
	parent := map[int]int{}
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	owner := func(s span) (string, bool) {
		for id := s.ID; id >= 0; id = parent[id] {
			if wl, ok := roundOf[id]; ok {
				return wl, true
			}
			if _, known := parent[id]; !known {
				break
			}
		}
		return "", false
	}
	for _, s := range spans {
		if wl, ok := owner(s); ok {
			byWorkload[wl] = append(byWorkload[wl], s)
		}
	}
	out := map[string]map[string]float64{}
	for wl, ss := range byWorkload {
		total := 0.0
		for _, s := range ss {
			if _, isRound := roundOf[s.ID]; isRound {
				total += (s.End - s.Start).Seconds()
			}
		}
		// Self time per layer and, below the layers, per span class; a
		// class is printed when it holds a hundredth of the round time.
		self := selfTimes(ss)
		byLayer, byName := map[string]float64{}, map[string]float64{}
		for _, s := range ss {
			byLayer[s.Layer] += self[s.ID].Seconds()
			byName[s.Layer+":"+s.Name] += self[s.ID].Seconds()
		}
		out[wl] = map[string]float64{}
		for layer, sec := range byLayer {
			out[wl][layer] = ratio(sec, total)
		}
		for name, sec := range byName {
			if share := ratio(sec, total); share >= 0.01 {
				out[wl][name] = share
			}
		}
	}
	return out
}

// sortedKeys returns a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
