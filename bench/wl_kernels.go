package main

import (
	"fmt"
	"math"
	"strings"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/all"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/kronecker"
	"github.com/hpcl-repro/epg/internal/simmachine"
	"github.com/hpcl-repro/epg/internal/verify"
	"github.com/hpcl-repro/epg/internal/xrand"
)

// Schedule constants of the kernels workload. Sized from the timings
// in README.md; never adapted at run time.
const (
	kernelsScale   = 13
	kernelsThreads = 32 // the paper's headline virtual thread count
	kernelsRoots   = 8  // every BFS and SSSP runs from each
)

// kernelCall is one kernel invocation of a round.
type kernelCall struct {
	ki   *kernelInst
	alg  engines.Algorithm
	root graph.VID
}

// kernelPlan is one loaded engine instance and the kernels a round
// runs on it. Compressed instances report under "<engine>.<alg>_c".
type kernelPlan struct {
	engine   string
	compress bool
	algs     []engines.Algorithm
}

var kernelPlans = []kernelPlan{
	{all.Graph500, false, []engines.Algorithm{engines.BFS}},
	{all.GAP, false, []engines.Algorithm{engines.BFS, engines.SSSP, engines.PageRank, engines.WCC}},
	{all.GraphBIG, false, []engines.Algorithm{engines.BFS, engines.SSSP, engines.PageRank}},
	{all.GraphMat, false, []engines.Algorithm{engines.BFS, engines.SSSP, engines.PageRank}},
	{all.PowerGraph, false, []engines.Algorithm{engines.SSSP, engines.PageRank}},
	{all.GAP, true, []engines.Algorithm{engines.BFS, engines.PageRank}},
	{all.Graph500, true, []engines.Algorithm{engines.BFS}},
}

// prTolerance is the PageRank L1 budget per engine (float32 property
// engines get the precision-floor budget the conformance tests use).
var prTolerance = map[string]float64{
	all.GAP: 1e-6, all.PowerGraph: 1e-6, all.GraphBIG: 5e-3, all.GraphMat: 5e-3,
}

// key names the plan's instance: "gap", "gap_c".
func (p kernelPlan) key() string {
	if p.compress {
		return strings.ToLower(p.engine) + "_c"
	}
	return strings.ToLower(p.engine)
}

// class names the op class of one kernel on one plan: "gap.bfs_c".
func (p kernelPlan) class(alg engines.Algorithm) string {
	c := strings.ToLower(p.engine) + "." + strings.ToLower(string(alg))
	if p.compress {
		c += "_c"
	}
	return c
}

type kernelInst struct {
	plan kernelPlan
	m    *simmachine.Machine
	inst engines.Instance
}

type kernelsWL struct {
	scale int
	seed  uint64
	graph uint64 // the instance seed: topology and roots
	el    *graph.EdgeList
	insts []*kernelInst
	roots []graph.VID
	// calls is the round: every plan's kernels from every root, in an
	// order the run's seed draws.
	calls []kernelCall
	refs  *kernelRefs // serial reference outputs, built for the warm-up round
}

type kernelRefs struct {
	prep *verify.Prepared
	bfs  map[graph.VID]*engines.BFSResult
	sssp map[graph.VID]*engines.SSSPResult
	pr   *engines.PRResult
	wcc  *engines.WCCResult
}

func newKernelsWL(cfg config) *kernelsWL {
	return &kernelsWL{scale: kernelsScale - cfg.scaleDelta, seed: cfg.seed, graph: cfg.instance()}
}

func (w *kernelsWL) name() string     { return "kernels" }
func (w *kernelsWL) headline() string { return "sssp" }
func (w *kernelsWL) finish(*rec)      {}

// loadInstance loads el into a fresh instance of the named engine on
// its own machine and runs the separately-timed construction phase.
func loadInstance(engine string, compress bool, el *graph.EdgeList, threads int) (*simmachine.Machine, engines.Instance, error) {
	eng, err := all.New(engine)
	if err != nil {
		return nil, nil, err
	}
	if compress && !engines.Configure(eng, engines.Options{Compress: true}).Compress {
		return nil, nil, fmt.Errorf("%s cannot traverse compressed adjacency", engine)
	}
	m := simmachine.New(simmachine.Haswell72(), threads)
	inst, err := eng.Load(el, m)
	if err != nil {
		return nil, nil, fmt.Errorf("%s load: %w", engine, err)
	}
	inst.BuildStructure()
	return m, inst, nil
}

func (w *kernelsWL) setup(l *lane) error {
	h := l.begin("kronecker", "kronecker.generate")
	w.el = kronecker.Generate(kronecker.Params{Scale: w.scale, Seed: w.graph})
	l.end(h)
	w.insts = w.insts[:0]
	for _, p := range kernelPlans {
		h := l.begin("engines", "load_build."+p.key())
		m, inst, err := loadInstance(p.engine, p.compress, w.el, kernelsThreads)
		l.end(h)
		if err != nil {
			return err
		}
		w.insts = append(w.insts, &kernelInst{plan: p, m: m, inst: inst})
	}
	// Roots are selected as the harness does: once, on the homogenized
	// graph, shared by every engine. They belong to the instance: what
	// a BFS or an SSSP allocates differs by 25 % from root to root.
	h = l.begin("graph", "graph.build_csr")
	csr := graph.BuildCSR(w.el, graph.BuildOptions{Symmetrize: true, DropSelfLoops: true, Dedup: true})
	l.end(h)
	w.roots = core.SelectRoots(csr, kernelsRoots, w.graph)
	if len(w.roots) < kernelsRoots {
		return fmt.Errorf("kernels: only %d roots with degree > 1", len(w.roots))
	}
	w.calls = w.calls[:0]
	for _, ki := range w.insts {
		for _, alg := range ki.plan.algs {
			if alg != engines.BFS && alg != engines.SSSP {
				w.calls = append(w.calls, kernelCall{ki, alg, 0})
				continue
			}
			for _, root := range w.roots {
				w.calls = append(w.calls, kernelCall{ki, alg, root})
			}
		}
	}
	xrand.New(xrand.Mix64(w.seed)).Shuffle(len(w.calls), func(i, j int) { w.calls[i], w.calls[j] = w.calls[j], w.calls[i] })
	w.refs = nil
	return nil
}

func (w *kernelsWL) close() { w.el, w.insts, w.roots, w.calls, w.refs = nil, nil, nil, nil, nil }

// references computes the serial reference outputs for the warm-up
// round's validation.
func (w *kernelsWL) references() *kernelRefs {
	if w.refs != nil {
		return w.refs
	}
	p := verify.Prepare(w.el)
	refs := &kernelRefs{
		prep: p,
		bfs:  map[graph.VID]*engines.BFSResult{},
		sssp: map[graph.VID]*engines.SSSPResult{},
		pr:   verify.PageRank(p, engines.DefaultPROpts()),
		wcc:  verify.WCC(p),
	}
	for _, root := range w.roots {
		refs.bfs[root] = verify.BFS(p, root)
		refs.sssp[root] = verify.SSSP(p, root)
	}
	w.refs = refs
	return refs
}

func (w *kernelsWL) round(r *rec) {
	for _, ki := range w.insts {
		// A fresh trace per round, as a harness Run gets a fresh machine:
		// the region trace would otherwise grow with every round.
		ki.m.Reset()
	}
	for _, c := range w.calls {
		w.call(r, c.ki, c.alg, c.root)
	}
}

// call runs one kernel through engines.RunAlgorithm, records its wall
// and modeled time, and checksums (or, on the warm-up round, validates)
// its output.
func (w *kernelsWL) call(r *rec, ki *kernelInst, alg engines.Algorithm, root graph.VID) {
	class := ki.plan.class(alg)
	var out any
	t0 := ki.m.Elapsed()
	d := r.op("engines", class, func() (err error) {
		out, err = engines.RunAlgorithm(ki.inst, alg, root)
		return err
	})
	r.val(class+".modeled_s", ki.m.Elapsed()-t0)
	if alg == engines.SSSP {
		r.lat["sssp"] = append(r.lat["sssp"], d.Seconds())
	}
	switch v := out.(type) {
	case *engines.BFSResult:
		r.val(class+".edges", float64(v.EdgesExamined))
		for _, x := range v.Depth {
			r.mix(uint64(x))
		}
		r.check(class, func() error { return verify.ValidateBFS(w.references().prep, v, w.references().bfs[root]) })
	case *engines.SSSPResult:
		for _, x := range v.Dist {
			r.mix(math.Float64bits(x))
		}
		r.check(class, func() error { return verify.ValidateSSSP(w.references().prep, v, w.references().sssp[root]) })
	case *engines.PRResult:
		for _, x := range v.Rank {
			r.mix(math.Float64bits(x))
		}
		r.check(class, func() error { return verify.ValidatePageRank(v, w.references().pr, prTolerance[ki.plan.engine]) })
	case *engines.WCCResult:
		for _, x := range v.Component {
			r.mix(uint64(x))
		}
		r.check(class, func() error { return verify.ValidateWCC(v, w.references().wcc) })
	}
}
