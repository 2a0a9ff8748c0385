// Golden modeled-cost wall: the exact bits of what every supported
// (engine, kernel) pair charges on one fixed graph, pinned ACROSS
// COMMITS. The determinism walls compare a kernel with itself (across
// runs, workers and policies); the three FIG_* gates pin GAP only. A
// rewrite of GraphBIG / GraphMat / PowerGraph CDLP, LCC or WCC that
// moves a modeled cost, a region boundary, an iteration count or a
// result passes all of those — this file is what fails.
//
// testdata/golden_costs.txt holds one row per case; `make golden`
// (EPG_WRITE_GOLDEN=1) is the only thing that rewrites it, like the
// FIG_* artifacts, and a PR that regenerates it must say why.
package all

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/gap"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/kronecker"
	"github.com/hpcl-repro/epg/internal/power"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

const (
	goldenPath    = "testdata/golden_costs.txt"
	goldenThreads = 32
	goldenWorkers = 4
	goldenRoot    = graph.VID(2)
)

const goldenHeader = `# Golden modeled costs: kron-12 (seed 1), 32 modeled threads, root 2.
# Rewritten only by "make golden"; see internal/engines/all/golden_test.go.
#
# config:  default | compress (GAP, Graph500) | adaptive (GrainAdaptive) |
#          directed (the same edges loaded as a directed graph) |
#          stream (GAP: Mutate + IncrementalPageRank after a batch that
#          adds a hub to a 64-ring, so the maintain runs the kernel)
# SSSP rows use the synchronous modes (Spec.SyncSSSP): the two chaotic
# relaxations charge a schedule-dependent trace by design.
# workers: real workers of the run. Modeled cost is worker-independent
#          by contract, so every row runs at 4.
# seconds/cycles/bytes/atomics: float64 bits of the summed region trace.
# result:  FNV-1a of the result arrays. trace: FNV-1a of every region's
#          (seconds, cycles, bytes, atomics), in order -- region for region.
#
# config engine alg workers seconds cycles bytes atomics regions iterations result trace
`

// goldenConfig is one knob setting of the wall.
type goldenConfig struct {
	name     string
	engines  []string
	compress bool
	adaptive bool
	directed bool
}

var goldenConfigs = []goldenConfig{
	{name: "default", engines: Names},
	{name: "compress", engines: []string{Graph500, GAP}, compress: true},
	{name: "adaptive", engines: Names, adaptive: true},
	{name: "directed", engines: Names, directed: true},
}

// goldenMachine is the wall's machine: 32 modeled threads, 4 real
// workers.
func goldenMachine(adaptive bool) *simmachine.Machine {
	s := core.Spec{Threads: goldenThreads, Workers: goldenWorkers}
	if adaptive {
		s.Grain = core.GrainAdaptive
	}
	m, _ := s.NewMachine(nil, simmachine.Haswell72(), power.DefaultConstants(), nil)
	return m
}

// goldenRow digests a finished run: the machine's trace since its last
// Reset plus the kernel's result. It is the one place that decides what
// "the same charges" means, for the kernel rows and the stream row.
func goldenRow(label string, m *simmachine.Machine, out any) string {
	var total simmachine.Cost
	var seconds float64
	trace := fnv.New64a()
	for _, r := range m.Trace() {
		seconds += r.Seconds
		total.Add(r.Cost)
		hashFloats(trace, r.Seconds, r.Cost.Cycles, r.Cost.Bytes, r.Cost.Atomics)
	}
	iterations, result := resultDigest(out)
	return fmt.Sprintf("%s %d %016x %016x %016x %016x %d %d %016x %016x\n",
		label, goldenWorkers, math.Float64bits(seconds), math.Float64bits(total.Cycles),
		math.Float64bits(total.Bytes), math.Float64bits(total.Atomics),
		len(m.Trace()), iterations, result, trace.Sum64())
}

func hashFloats(h interface{ Write([]byte) (int, error) }, fs ...float64) {
	var b [8]byte
	for _, f := range fs {
		u := math.Float64bits(f)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
}

// resultDigest hashes every array of a kernel result and extracts its
// iteration count (0 for kernels that have none).
func resultDigest(out any) (iterations int, sum uint64) {
	h := fnv.New64a()
	ints := func(xs []int64) {
		for _, x := range xs {
			hashFloats(h, math.Float64frombits(uint64(x)))
		}
	}
	vids := func(xs []graph.VID) {
		for _, x := range xs {
			hashFloats(h, math.Float64frombits(uint64(x)))
		}
	}
	switch r := out.(type) {
	case *engines.BFSResult:
		ints(r.Parent)
		ints(r.Depth)
		ints([]int64{r.EdgesExamined})
	case *engines.SSSPResult:
		hashFloats(h, r.Dist...)
		ints(r.Parent)
		ints([]int64{r.Relaxations})
	case *engines.PRResult:
		hashFloats(h, r.Rank...)
		iterations = r.Iterations
	case *engines.CDLPResult:
		vids(r.Label)
		iterations = r.Iterations
	case *engines.LCCResult:
		hashFloats(h, r.Coeff...)
	case *engines.WCCResult:
		vids(r.Component)
	default:
		panic(fmt.Sprintf("golden: unknown result type %T", out))
	}
	return iterations, h.Sum64()
}

// goldenKernel runs one (config, engine, kernel) case.
func goldenKernel(t *testing.T, cfg goldenConfig, name string, alg engines.Algorithm, el *graph.EdgeList) string {
	t.Helper()
	eng, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	engines.Configure(eng, engines.Options{SyncSSSP: true, Compress: cfg.compress})
	m := goldenMachine(cfg.adaptive)
	inst, err := eng.Load(el, m)
	if err != nil {
		t.Fatalf("%s load: %v", name, err)
	}
	inst.BuildStructure()
	m.Reset()
	out, err := engines.RunAlgorithm(inst, alg, goldenRoot)
	if err != nil {
		t.Fatalf("%s %s %s: %v", cfg.name, name, alg, err)
	}
	return goldenRow(fmt.Sprintf("%s %s %s", cfg.name, name, alg), m, out)
}

// goldenStream is the stream row: a baseline that converges at once (a
// ring: uniform ranks are the fixed point), then a hub insertion, which
// changes the rows' membership, so the maintain runs the kernel rather
// than return its kept answer. The row covers the Mutate and the
// incremental run.
func goldenStream(t *testing.T) string {
	t.Helper()
	const n = 64
	el := &graph.EdgeList{NumVertices: n}
	for v := 0; v < n; v++ {
		el.Edges = append(el.Edges, graph.Edge{Src: graph.VID(v), Dst: graph.VID((v + 1) % n)})
	}
	m := goldenMachine(false)
	loaded, err := (&engines.Engine{Decl: &gap.Decl}).Load(el, m)
	if err != nil {
		t.Fatal(err)
	}
	inst := loaded.(*gap.Instance)
	inst.BuildStructure()
	base, err := inst.IncrementalPageRank(engines.DefaultPROpts())
	if err != nil {
		t.Fatal(err)
	}
	var b graph.Batch
	for v := 1; v < n; v += 2 {
		b = append(b, graph.Mutation{Op: graph.MutInsert, Src: 0, Dst: graph.VID(v)})
	}
	m.Reset()
	if _, err := inst.Mutate(b); err != nil {
		t.Fatal(err)
	}
	mark, _ := m.Mark()
	inc, err := inst.IncrementalPageRank(engines.DefaultPROpts())
	if err != nil {
		t.Fatal(err)
	}
	if end, _ := m.Mark(); end == mark || inc.Iterations == base.Iterations {
		t.Fatalf("stream row's maintain charged %d regions and ran %d iterations on a %d-iteration baseline: its batch no longer drifts the structure", end-mark, inc.Iterations, base.Iterations)
	}
	return goldenRow("stream GAP IncrementalPR", m, inc)
}

// goldenTable regenerates every row from the kernels at HEAD.
func goldenTable(t *testing.T) []byte {
	t.Helper()
	und := kronecker.Generate(kronecker.Params{Scale: 12, Seed: 1})
	dir := *und
	dir.Directed = true
	var buf bytes.Buffer
	buf.WriteString(goldenHeader)
	for _, cfg := range goldenConfigs {
		el := und
		if cfg.directed {
			el = &dir
		}
		for _, name := range cfg.engines {
			eng, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range engines.AllAlgorithms {
				if eng.Has(alg) {
					buf.WriteString(goldenKernel(t, cfg, name, alg, el))
				}
			}
		}
	}
	buf.WriteString(goldenStream(t))
	return buf.Bytes()
}

// TestGoldenModeledCosts fails on any difference between the rows the
// kernels produce now and the committed file, naming the rows.
func TestGoldenModeledCosts(t *testing.T) {
	got := goldenTable(t)
	if os.Getenv("EPG_WRITE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with `make golden`)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gl) != len(wl) {
		t.Errorf("%d lines, committed file has %d", len(gl), len(wl))
	}
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Errorf("line %d drifted:\n  now:       %s\n  committed: %s", i+1, gl[i], wl[i])
		}
	}
	t.Error("modeled costs drifted from " + goldenPath + ": a cost, region, iteration count or result moved; regenerate with `make golden` only if that was the point of the change")
}
