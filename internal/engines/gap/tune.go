package gap

import (
	"fmt"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// The paper's future work: "Advances in parallel SSSP and BFS contain
// parameterizations (Δ for SSSP and α and β for BFS) which affect
// performance depending on graph structure. ... We plan to add some
// level of heuristic parameter tuning." This file implements that
// tuning loop for the GAP engine: candidate parameterizations are
// evaluated on sample roots against the machine model and the best
// modeled time wins.

// TuneResult reports one candidate's measurement.
type TuneResult struct {
	Delta   float64 // SSSP candidates
	Alpha   int     // BFS candidates
	Beta    int
	Seconds float64 // mean modeled seconds over the sample roots
}

// TuneDelta evaluates delta-stepping bucket widths on the given graph
// and roots, returning the best value and the full sweep. The
// engine's machine model supplies timing, so the search is
// deterministic.
func TuneDelta(el *graph.EdgeList, model simmachine.Model, threads int, roots []graph.VID, candidates []float64) (best float64, sweep []TuneResult, err error) {
	if len(candidates) == 0 {
		candidates = []float64{0.0625, 0.125, 0.25, 0.5, 1.0}
	}
	for _, delta := range candidates {
		sweep = append(sweep, TuneResult{Delta: delta})
	}
	i, err := measure(el, model, threads, roots, sweep, engines.SSSP)
	if err != nil {
		return 0, nil, err
	}
	return sweep[i].Delta, sweep, nil
}

// TuneAlphaBeta evaluates direction-optimizing BFS switch parameters,
// including the paper's untuned defaults (α=15, β=18), and returns
// the best pair.
func TuneAlphaBeta(el *graph.EdgeList, model simmachine.Model, threads int, roots []graph.VID, alphas, betas []int) (bestAlpha, bestBeta int, sweep []TuneResult, err error) {
	if len(alphas) == 0 {
		alphas = []int{5, 15, 30, 60}
	}
	if len(betas) == 0 {
		betas = []int{6, 18, 36}
	}
	for _, a := range alphas {
		for _, b := range betas {
			sweep = append(sweep, TuneResult{Alpha: a, Beta: b})
		}
	}
	i, err := measure(el, model, threads, roots, sweep, engines.BFS)
	if err != nil {
		return 0, 0, nil, err
	}
	return sweep[i].Alpha, sweep[i].Beta, sweep, nil
}

// measure fills in each candidate's mean modeled seconds of alg over
// roots and returns the index of the fastest, the first among equals. It
// homogenizes el once and rebinds one instance to a new machine per
// candidate, with the candidate's parameters (a kernel reads only its
// own).
func measure(el *graph.EdgeList, model simmachine.Model, threads int, roots []graph.VID, sweep []TuneResult, alg engines.Algorithm) (best int, err error) {
	if len(roots) == 0 {
		return 0, fmt.Errorf("gap: tuning needs at least one root")
	}
	g, err := graph.Homogenize(el)
	if err != nil {
		return 0, err
	}
	inst := new(Instance)
	for i := range sweep {
		c := &sweep[i]
		inst.Params = Params{Alpha: c.Alpha, Beta: c.Beta, Delta: c.Delta}
		m := simmachine.New(model, threads)
		m.SetTracing(false)
		inst.Bind(g, m, engines.Options{})
		inst.BuildStructure()
		start := m.Elapsed()
		for _, r := range roots {
			if _, err := engines.RunAlgorithm(inst, alg, r); err != nil {
				return 0, err
			}
		}
		c.Seconds = (m.Elapsed() - start) / float64(len(roots))
		if c.Seconds < sweep[best].Seconds {
			best = i
		}
	}
	return best, nil
}
