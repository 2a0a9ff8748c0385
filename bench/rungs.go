package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/all"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/parallel"
	"github.com/hpcl-repro/epg/internal/power"
	"github.com/hpcl-repro/epg/internal/server"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// Rung-pass sizes.
const (
	rungReps      = 5       // repeats of each micro-measurement; the median is reported
	rungChunks    = 1 << 16 // empty-body chunks per scheduling-overhead region
	rungItems     = 1 << 20 // items per scan / bitmap / queue pass
	rungPoolRuns  = 2000
	rungPowerReps = 200
	// rungPowerRegions is the window a RAPL reading integrates over: about
	// the region count of one kron-14 BFS.
	rungPowerRegions = 64
	rungSubmitBFS    = 64
	rungSubmitPR     = 256
)

// timeReps runs fn rungReps times and records each duration, divided by
// per, under name.
func timeReps(r *rec, name string, per float64, fn func()) {
	for i := 0; i < rungReps; i++ {
		t0 := time.Now()
		fn()
		r.val(name, float64(time.Since(t0).Nanoseconds())/per)
	}
}

var schedNames = map[parallel.Sched]string{
	parallel.Static: "static", parallel.Dynamic: "dynamic", parallel.Steal: "steal", parallel.NUMA: "numa",
}

// parallelRungs measures the shared runtime on its own: dispatch
// overhead per chunk under each policy (empty bodies), a bare pool
// region, and the scan and frontier primitives. Values are ns per unit.
func parallelRungs(r *rec) {
	h := r.lane.begin("parallel", "rungs.parallel")
	defer r.lane.end(h)
	pool, workers := parallel.Default(), runtime.GOMAXPROCS(0)
	for sched, name := range schedNames {
		timeReps(r, "parallel.for_"+name, rungChunks, func() {
			parallel.For(pool, workers, rungChunks, 1, sched, func(lo, hi, chunk, worker int) {})
		})
	}
	timeReps(r, "parallel.pool_run", rungPoolRuns, func() {
		for i := 0; i < rungPoolRuns; i++ {
			pool.Run(workers, func(int) {})
		}
	})

	xs := make([]int64, rungItems)
	timeReps(r, "parallel.scan", rungItems, func() {
		for i := range xs {
			xs[i] = 1
		}
		parallel.ScanInt64(pool, workers, xs)
	})

	bm := parallel.NewBitmap(rungItems)
	for i := 0; i < rungItems; i += 8 {
		bm.Set(i)
	}
	dst := make([]uint32, 0, rungItems/8)
	timeReps(r, "parallel.bitmap_toslice", rungItems, func() { dst = bm.ToSlice(pool, workers, dst[:0]) })

	const chunkLen = 256
	items := make([]uint32, rungItems)
	cq := parallel.NewChunkQueue[uint32]()
	for i := 0; i < rungReps; i++ {
		cq.Reset(rungItems / chunkLen)
		for c := 0; c < rungItems/chunkLen; c++ {
			cq.Put(c, items[c*chunkLen:(c+1)*chunkLen])
		}
		out := make([]uint32, 0, rungItems)
		t0 := time.Now()
		out = parallel.DrainChunkQueue(cq, out, func(x uint32) (uint32, bool) { return x, true })
		r.val("parallel.chunkqueue_drain", float64(time.Since(t0).Nanoseconds())/float64(len(out)))
	}

	q := parallel.NewQueue[uint32](rungItems)
	timeReps(r, "parallel.queue_push", rungItems, func() {
		q.Reset()
		parallel.For(pool, workers, rungItems, chunkLen, parallel.Dynamic, func(lo, hi, chunk, worker int) {
			q.PushBatch(items[lo:hi])
		})
	})
}

// rungs of kernels: the parallel runtime alone, then one round with
// per-call allocation accounting (engines.gap.*_alloc_kb).
func (w *kernelsWL) rungs(r *rec) {
	parallelRungs(r)
	w.round(r)
}

// rungs of ingest: one round with per-call allocation accounting
// (graph.build_csr_alloc_mb, graph.mutate_apply_alloc_mb).
func (w *ingestWL) rungs(r *rec) { w.round(r) }

// rungs of study: what a simmachine region adds over the bare parallel
// region it wraps, and what one RAPL window costs.
func (w *studyWL) rungs(r *rec) {
	h := r.lane.begin("simmachine", "rungs.simmachine")
	m := simmachine.New(simmachine.Haswell72(), 72)
	m.SetTracing(false) // rungChunks-sized regions, repeated: do not retain them
	for sched, psched := range map[simmachine.Sched]parallel.Sched{
		simmachine.Static: parallel.Static, simmachine.Steal: parallel.Steal,
	} {
		name := schedNames[psched]
		timeReps(r, "simmachine.region_"+name, rungChunks, func() {
			m.ParallelForChunks(rungChunks, 1, sched, func(lo, hi, chunk, worker int, w *simmachine.W) {})
		})
		timeReps(r, "simmachine.bare_"+name, rungChunks, func() {
			parallel.For(m.Pool(), m.Workers(), rungChunks, 1, psched, func(lo, hi, chunk, worker int) {})
		})
	}
	r.lane.end(h)

	h = r.lane.begin("power", "rungs.power")
	pm := simmachine.New(simmachine.Haswell72(), 32)
	meter := power.NewRAPL(pm, power.DefaultConstants())
	for i := 0; i < rungPowerReps; i++ {
		t0 := time.Now()
		meter.Start()
		d := time.Since(t0)
		for region := 0; region < rungPowerRegions; region++ {
			pm.ParallelFor(1024, 64, simmachine.Dynamic, func(lo, hi int, w *simmachine.W) { w.Cycles(float64(hi - lo)) })
		}
		t1 := time.Now()
		rd := meter.End()
		d += time.Since(t1)
		if rd.TotalJoules() <= 0 {
			r.fail("power.measure", fmt.Errorf("window %d read %g J", i, rd.TotalJoules()))
		}
		r.val("power.measure", float64(d.Nanoseconds()))
	}
	r.lane.end(h)
}

// rungs of the serving workloads: direct calls under the HTTP layer.
func (w *serveWL) rungs(r *rec) {
	if w.mutate {
		w.mutateRungs(r)
		return
	}
	timeReps(r, "server.sketch_build", 1, func() { server.BuildSketch(w.csr, serveLandmarks) })

	ctx := context.Background()
	var bfs, pr []server.Query
	for _, q := range w.queries[0] {
		if q.Op == server.OpBFS && len(bfs) < rungSubmitBFS {
			bfs = append(bfs, q)
		}
	}
	for i := 0; i < rungSubmitPR; i++ {
		pr = append(pr, server.Query{Op: server.OpPR, Source: graph.VID(i % w.csr.NumVertices)})
	}
	submit := func(class string, q server.Query) {
		r.op("server", class, func() error {
			if resp := w.srv.Submit(ctx, q); resp.Status != server.StatusOK {
				return fmt.Errorf("%s: %s %s", q.Op, resp.Status, resp.Err)
			}
			return nil
		})
	}
	for _, q := range bfs {
		submit("submit.bfs", q)
	}
	for _, q := range pr {
		submit("submit.pr", q)
	}
	for i := 0; i < rungReps; i++ {
		r.op("server", "http.refresh", func() error {
			resp, err := w.clients[0].Post(w.ts.URL+"/v1/refresh", "application/json", http.NoBody)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("refresh: HTTP %d", resp.StatusCode)
			}
			return nil
		})
	}
}

// mutateRungs measures one direct Server.Mutate with its allocation,
// and the engine's Streamer calls on a GAP instance of their own.
func (w *serveWL) mutateRungs(r *rec) {
	b := w.stream.next(mutateInserts, mutateDeletes)
	r.op("server", "submit.mutate", func() error {
		_, err := w.srv.Mutate(context.Background(), b)
		return err
	})

	_, inst, err := loadInstance(all.GAP, false, w.el, serveThreads)
	if err != nil {
		r.fail("rungs.streamer", err)
		return
	}
	st, ok := inst.(engines.Streamer)
	if !ok {
		r.fail("rungs.streamer", fmt.Errorf("GAP instance is not a Streamer"))
		return
	}
	// The first incremental calls record the full baselines.
	if _, err := st.IncrementalPageRank(engines.DefaultPROpts()); err != nil {
		r.fail("rungs.streamer", err)
		return
	}
	if _, err := st.IncrementalWCC(); err != nil {
		r.fail("rungs.streamer", err)
		return
	}
	stream := newMutStream(w.csr, w.graph+1)
	for i := 0; i < rungReps; i++ {
		b := stream.next(mutateInserts, mutateDeletes)
		r.op("engines", "streamer.mutate", func() error { _, err := st.Mutate(b); return err })
		r.op("engines", "streamer.incr_pr", func() error {
			_, err := st.IncrementalPageRank(engines.DefaultPROpts())
			return err
		})
		r.op("engines", "streamer.incr_wcc", func() error { _, err := st.IncrementalWCC(); return err })
	}
}
