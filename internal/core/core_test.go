package core

import (
	"testing"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/kronecker"
)

func TestSpecValidate(t *testing.T) {
	good := Spec{Dataset: "kron-16", Algorithm: engines.BFS, Threads: 32}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	for name, s := range map[string]Spec{
		"no dataset":   {Algorithm: engines.BFS, Threads: 2},
		"no algorithm": {Dataset: "x", Threads: 2},
		"zero threads": {Dataset: "x", Algorithm: engines.BFS},
		// Outside input (`epg run -roots -5`): a negative count is an
		// error, not a silent fall-back to the default.
		"negative roots":   {Dataset: "x", Algorithm: engines.BFS, Threads: 2, Roots: -5},
		"negative workers": {Dataset: "x", Algorithm: engines.BFS, Threads: 2, Workers: -1},
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestSpecValidateFreqState(t *testing.T) {
	s := Spec{Dataset: "kron-16", Algorithm: engines.BFS, Threads: 32}
	for _, freq := range []string{"", FreqTurbo, FreqBalanced, FreqPowersave} {
		s.FreqState = freq
		if err := s.Validate(); err != nil {
			t.Errorf("freq %q rejected: %v", freq, err)
		}
	}
	for _, freq := range []string{"overclocked", "Turbo", "TURBO", "power-save"} {
		s.FreqState = freq
		if err := s.Validate(); err == nil {
			t.Errorf("freq %q accepted", freq)
		}
	}
}

func TestNumRootsDefault(t *testing.T) {
	if got := (Spec{}).NumRoots(); got != DefaultRoots {
		t.Errorf("default roots = %d, want %d", got, DefaultRoots)
	}
	if got := (Spec{Roots: 4}).NumRoots(); got != 4 {
		t.Errorf("roots = %d, want 4", got)
	}
}

func buildKron(scale int) *graph.CSR {
	el := kronecker.Generate(kronecker.Params{Scale: scale, Seed: 1})
	return graph.BuildCSR(el, graph.BuildOptions{Symmetrize: true, DropSelfLoops: true, Dedup: true})
}

func TestSelectRootsDegreeRule(t *testing.T) {
	csr := buildKron(10)
	roots := SelectRoots(csr, 32, 7)
	if len(roots) != 32 {
		t.Fatalf("got %d roots, want 32", len(roots))
	}
	seen := map[graph.VID]bool{}
	for _, r := range roots {
		if csr.Degree(r) <= 1 {
			t.Errorf("root %d has degree %d", r, csr.Degree(r))
		}
		if seen[r] {
			t.Errorf("duplicate root %d", r)
		}
		seen[r] = true
	}
}

func TestSelectRootsDeterministic(t *testing.T) {
	csr := buildKron(9)
	a := SelectRoots(csr, 16, 42)
	b := SelectRoots(csr, 16, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("root selection not deterministic")
		}
	}
	c := SelectRoots(csr, 16, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical root order")
	}
}

func TestSelectRootsSmallGraph(t *testing.T) {
	el := &graph.EdgeList{
		NumVertices: 4,
		Edges:       []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}},
	}
	csr := graph.BuildCSR(el, graph.BuildOptions{Symmetrize: true})
	roots := SelectRoots(csr, 32, 1)
	if len(roots) != 1 { // only vertex 1 has degree 2
		t.Errorf("got %d roots, want 1", len(roots))
	}
}

func TestResultTEPS(t *testing.T) {
	r := Result{AlgorithmSec: 0.5, EdgesExamined: 1000}
	if got := r.TEPS(); got != 2000 {
		t.Errorf("TEPS = %v, want 2000", got)
	}
	if (Result{}).TEPS() != 0 {
		t.Error("zero result should have zero TEPS")
	}
}

func TestResultKey(t *testing.T) {
	r := Result{Engine: "GAP", Dataset: "kron-16", Algorithm: engines.BFS, Threads: 32}
	if got := r.Key(); got != "kron-16/BFS/GAP/t32" {
		t.Errorf("key = %q", got)
	}
}

func TestPhasesOrder(t *testing.T) {
	want := []Phase{PhaseInstall, PhaseHomogenize, PhaseRun, PhaseParse, PhaseAnalyze}
	if len(Phases) != len(want) {
		t.Fatal("phase count changed")
	}
	for i := range want {
		if Phases[i] != want[i] {
			t.Errorf("phase %d = %s, want %s", i, Phases[i], want[i])
		}
	}
}
