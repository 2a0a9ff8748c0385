package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/kronecker"
	"github.com/hpcl-repro/epg/internal/server"
	"github.com/hpcl-repro/epg/internal/verify"
	"github.com/hpcl-repro/epg/internal/xrand"
)

// Schedule constants of the two serving workloads. Both are closed
// loops over two keep-alive connections: each client sends its next
// request when the previous one returns.
const (
	serveScale     = 14
	serveExecutors = 2
	serveThreads   = 8
	serveLandmarks = 8 // the server's default, named for the sketch rung
	serveKHop      = 2
	serveProbes    = 128

	// serve-mutate's writer: four batches a round, which outlast its
	// reader's round, so every read has a mutation in flight beside it.
	mutateBatches = 4
	mutateInserts = 192
	mutateDeletes = 64
)

// queryMix is one reader's round in exact class counts, so the mix does
// not drift with the seed: bfs 60 %, khop 14 %, sssp 2 %, pr 12 %,
// wcc 12 %.
type queryMix struct{ bfs, khop, sssp, pr, wcc int }

var (
	readMix       = queryMix{bfs: 300, khop: 70, sssp: 10, pr: 60, wcc: 60} // 500 per reader
	mutateReadMix = queryMix{bfs: 180, khop: 42, sssp: 6, pr: 36, wcc: 36}  // 300 beside the writer
)

// serveWL is serve-read (two readers) or, with mutate set, serve-mutate
// (one reader beside one writer).
type serveWL struct {
	mutate bool
	scale  int
	seed   uint64
	graph  uint64 // the instance seed: topology, sources, mutation stream

	el  *graph.EdgeList
	csr *graph.CSR // the benchmark's own homogenized copy: sources, stream, references
	srv *server.Server
	ts  *httptest.Server
	// clients are the keep-alive HTTP clients, one connection each.
	clients []*http.Client
	// queries[c] is reader c's round.
	queries [][]server.Query
	stream  *mutStream
	applied []graph.Batch // every acknowledged batch, for the final check
	lanes   []*lane
}

func newServeWL(cfg config, mutate bool) *serveWL {
	return &serveWL{mutate: mutate, scale: serveScale - cfg.scaleDelta, seed: cfg.seed, graph: cfg.instance()}
}

func (w *serveWL) name() string {
	if w.mutate {
		return "serve-mutate"
	}
	return "serve-read"
}

func (w *serveWL) headline() string { return "http.bfs" }

func (w *serveWL) readers() int {
	if w.mutate {
		return 1
	}
	return 2
}

func (w *serveWL) mix() queryMix {
	if w.mutate {
		return mutateReadMix
	}
	return readMix
}

func (w *serveWL) setup(l *lane) error {
	h := l.begin("kronecker", "kronecker.generate")
	w.el = kronecker.Generate(kronecker.Params{Scale: w.scale, Seed: w.graph})
	l.end(h)

	h = l.begin("server", "server.start")
	srv, err := server.NewFromEdgeList(w.el, server.Config{Executors: serveExecutors, Threads: serveThreads})
	l.end(h)
	if err != nil {
		return err
	}
	w.srv = srv
	w.ts = httptest.NewServer(srv.Handler())

	h = l.begin("graph", "graph.build_csr")
	w.csr = graph.BuildCSR(w.el, homogenized)
	l.end(h)

	w.clients = w.clients[:0]
	for c := 0; c < 2; c++ {
		w.clients = append(w.clients, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
	}
	sources := core.SelectRoots(w.csr, w.csr.NumVertices, w.graph) // every vertex of degree > 1
	if len(sources) == 0 {
		return fmt.Errorf("%s: no vertex of degree > 1", w.name())
	}
	w.queries = w.queries[:0]
	for c := 0; c < w.readers(); c++ {
		w.queries = append(w.queries, readerRound(w.mix(), sources, w.csr.NumVertices,
			xrand.New(xrand.Mix64(w.graph)+uint64(c)), xrand.New(xrand.Mix64(w.seed)+uint64(c))))
	}
	// The stream belongs to the instance too: what a batch costs the
	// incremental maintainers depends on which edges it holds.
	w.stream = newMutStream(w.csr, w.graph)
	w.applied = nil
	return nil
}

// readerRound draws one reader's round: exact class counts in a
// seed-shuffled order. Traversal sources have degree > 1, as the
// Graph500 root rule requires (a BFS from an isolated vertex measures
// nothing), and are drawn by the instance's generator: a query's cost
// is its source's (ten SSSP sources allocate 44-95 MB between them).
// Targets and lookup keys, which cost nothing, are the run's own draw,
// uniform over all vertices.
func readerRound(mix queryMix, sources []graph.VID, n int, inst, rng *xrand.RNG) []server.Query {
	src := func() graph.VID { return sources[inst.Intn(len(sources))] }
	anyVertex := func() graph.VID { return graph.VID(rng.Intn(n)) }
	var qs []server.Query
	for i := 0; i < mix.bfs; i++ {
		qs = append(qs, server.Query{Op: server.OpBFS, Source: src(), Target: anyVertex()})
	}
	for i := 0; i < mix.khop; i++ {
		qs = append(qs, server.Query{Op: server.OpKHop, Source: src(), K: serveKHop})
	}
	for i := 0; i < mix.sssp; i++ {
		qs = append(qs, server.Query{Op: server.OpSSSP, Source: src(), Target: anyVertex()})
	}
	for i := 0; i < mix.pr; i++ {
		qs = append(qs, server.Query{Op: server.OpPR, Source: anyVertex()})
	}
	for i := 0; i < mix.wcc; i++ {
		qs = append(qs, server.Query{Op: server.OpWCC, Source: anyVertex(), Target: anyVertex()})
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

func (w *serveWL) close() {
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
	if w.ts != nil {
		w.ts.Close()
		w.srv.Close()
	}
	*w = serveWL{mutate: w.mutate, scale: w.scale, seed: w.seed, graph: w.graph}
}

// get sends one query over HTTP and decodes the answer. Any non-200 —
// a shed, a deadline, an error — is a failed op.
func (w *serveWL) get(c *http.Client, q server.Query) (server.Response, error) {
	url := fmt.Sprintf("%s/v1/query?op=%s&src=%d&dst=%d&k=%d", w.ts.URL, q.Op, q.Source, q.Target, q.K)
	var out server.Response
	resp, err := c.Get(url)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256)) // best effort: the status is the error
		return out, fmt.Errorf("%s: HTTP %d %s", q.Op, resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, err
	}
	if out.Status != server.StatusOK || out.Degraded {
		return out, fmt.Errorf("%s: status %q degraded %v", q.Op, out.Status, out.Degraded)
	}
	_, err = io.Copy(io.Discard, resp.Body) // drain, so the connection is reused
	return out, err
}

// wireOp and wireBatch are the POST /v1/mutate body.
type wireOp struct {
	Op  string  `json:"op"`
	Src uint32  `json:"src"`
	Dst uint32  `json:"dst"`
	W   float32 `json:"w,omitempty"`
}

type wireBatch struct {
	Ops []wireOp `json:"ops"`
}

// post sends one mutation batch and checks the server applied all of
// it: the stream only inserts non-edges and deletes present edges.
func (w *serveWL) post(c *http.Client, b graph.Batch) error {
	body := wireBatch{Ops: make([]wireOp, len(b))}
	inserts := 0
	for i, mu := range b {
		body.Ops[i] = wireOp{Op: "delete", Src: mu.Src, Dst: mu.Dst}
		if mu.Op == graph.MutInsert {
			body.Ops[i].Op, body.Ops[i].W = "insert", mu.W
			inserts++
		}
	}
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.Post(w.ts.URL+"/v1/mutate", "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var ack struct {
		Status   string `json:"status"`
		Inserted int    `json:"inserted"`
		Deleted  int    `json:"deleted"`
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256)) // best effort: the status is the error
		return fmt.Errorf("mutate: HTTP %d %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return err
	}
	if ack.Status != "ok" || ack.Inserted != inserts || ack.Deleted != len(b)-inserts {
		return fmt.Errorf("mutate: status %q inserted %d deleted %d, sent %d inserts %d deletes",
			ack.Status, ack.Inserted, ack.Deleted, inserts, len(b)-inserts)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func (w *serveWL) round(r *rec) {
	if r.verify {
		// Before the writer's first batch: the references know the
		// set-up graph.
		w.probe(r, verifyOracle(w.el))
	}
	if r.lane != nil && w.lanes == nil {
		w.lanes = []*lane{r.lane.tr.lane(), r.lane.tr.lane()}
	}
	recs := make([]*rec, 2)
	var wg sync.WaitGroup
	for c := range recs {
		var cl *lane
		if r.lane != nil {
			cl = w.lanes[c]
			r.lane.adopt(cl)
		}
		recs[c] = newRec(cl, r.verify)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w.mutate && c == 1 {
				w.write(recs[c], w.clients[c])
			} else {
				w.read(recs[c], w.clients[c], w.queries[c])
			}
		}()
	}
	wg.Wait()
	for _, cr := range recs {
		r.merge(cr)
	}
}

// read is one reader's closed loop over its round.
func (w *serveWL) read(r *rec, c *http.Client, qs []server.Query) {
	h := r.lane.begin("bench", "client.reader")
	defer r.lane.end(h)
	for _, q := range qs {
		var resp server.Response
		r.op("server", "http."+string(q.Op), func() (err error) {
			resp, err = w.get(c, q)
			return err
		})
		r.val("modeled_s."+string(q.Op), resp.ModeledSec)
		// Beside a writer the answers follow the graph; only a
		// read-only round repeats and can be checksummed.
		if !w.mutate {
			r.mix(math.Float64bits(resp.Value))
		}
	}
}

// write is the writer's closed loop: mutateBatches POSTs.
func (w *serveWL) write(r *rec, c *http.Client) {
	h := r.lane.begin("bench", "client.writer")
	defer r.lane.end(h)
	for i := 0; i < mutateBatches; i++ {
		b := w.stream.next(mutateInserts, mutateDeletes)
		failed := r.failed
		r.op("server", "http.mutate", func() error { return w.post(c, b) })
		if r.failed == failed {
			w.applied = append(w.applied, b)
		}
	}
}

// An oracle answers a query from a reference; exact says whether the
// served value must match bit for bit.
type oracle func(q server.Query) (want float64, exact bool, err error)

// verifyOracle answers from the serial references of internal/verify.
func verifyOracle(el *graph.EdgeList) oracle {
	p := verify.Prepare(el)
	pr := verify.PageRank(p, engines.DefaultPROpts())
	wcc := verify.WCC(p)
	return func(q server.Query) (float64, bool, error) {
		switch q.Op {
		case server.OpBFS:
			return float64(verify.BFS(p, q.Source).Depth[q.Target]), true, nil
		case server.OpKHop:
			count := 0
			for _, d := range verify.BFS(p, q.Source).Depth {
				if d >= 0 && d <= int64(q.K) {
					count++
				}
			}
			return float64(count), true, nil
		case server.OpSSSP:
			d := verify.SSSP(p, q.Source).Dist[q.Target]
			if math.IsInf(d, 1) {
				d = -1
			}
			return d, false, nil
		case server.OpPR:
			return pr.Rank[q.Source], false, nil
		case server.OpWCC:
			if wcc.Component[q.Source] == wcc.Component[q.Target] {
				return 1, true, nil
			}
			return 0, true, nil
		}
		return 0, false, fmt.Errorf("no reference for op %q", q.Op)
	}
}

// serverOracle answers from another server instance, whose answers on
// the same graph must be bit-equal.
func serverOracle(s *server.Server) oracle {
	return func(q server.Query) (float64, bool, error) {
		resp := s.Submit(context.Background(), q)
		if resp.Status != server.StatusOK {
			return 0, true, fmt.Errorf("reference server: %s %s", resp.Status, resp.Err)
		}
		return resp.Value, true, nil
	}
}

// probe checks the first serveProbes queries of reader 0's round, over
// HTTP, against the oracle.
func (w *serveWL) probe(r *rec, want oracle) {
	for _, q := range w.queries[0][:serveProbes] {
		r.ops++
		got, err := w.get(w.clients[0], q)
		if err != nil {
			r.fail("probe", err)
			continue
		}
		ref, exact, err := want(q)
		if err != nil {
			r.fail("probe", err)
			continue
		}
		tol := 0.0
		if !exact {
			tol = verify.SSSPTolerance
			if q.Op == server.OpPR {
				tol = 1e-6 // GAP's L1 budget bounds every single score
			}
		}
		if math.Abs(got.Value-ref) > tol {
			r.fail("probe", fmt.Errorf("%s src=%d dst=%d served %v, reference %v", q.Op, q.Source, q.Target, got.Value, ref))
		}
	}
}

// finish runs after the last timed round. serve-mutate checks the
// served graph against a fresh server built from the benchmark's own
// post-mutation edge list.
func (w *serveWL) finish(r *rec) {
	if !w.mutate {
		return
	}
	fresh, err := server.NewFromEdgeList(applyToEdgeList(w.csr, w.applied),
		server.Config{Executors: 1, Threads: serveThreads})
	if err != nil {
		r.fail("finish", err)
		return
	}
	defer fresh.Close()
	w.probe(r, serverOracle(fresh))
}
