package main

import (
	"reflect"
	"testing"

	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/kronecker"
)

func testCSR(t *testing.T) *graph.CSR {
	t.Helper()
	el := kronecker.Generate(kronecker.Params{Scale: 10, Seed: 7})
	return graph.BuildCSR(el, homogenized)
}

// Every undirected edge is touched at most once over the whole stream,
// deletes come from the original graph and inserts from its non-edges.
func TestMutStreamTouchesEachEdgeOnce(t *testing.T) {
	csr := testCSR(t)
	s := newMutStream(csr, 3)
	seen := map[uint64]bool{}
	for batch := 0; batch < 20; batch++ {
		b := s.next(mutateInserts, mutateDeletes)
		if err := b.Validate(csr.NumVertices, true); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		inserts := 0
		for _, mu := range b {
			if mu.Src == mu.Dst {
				t.Fatalf("batch %d: self-loop on %d", batch, mu.Src)
			}
			k := pairKey(mu.Src, mu.Dst)
			if seen[k] {
				t.Fatalf("batch %d revisits edge {%d, %d}", batch, mu.Src, mu.Dst)
			}
			seen[k] = true
			present := csr.HasEdge(mu.Src, mu.Dst)
			switch mu.Op {
			case graph.MutInsert:
				inserts++
				if present {
					t.Fatalf("batch %d inserts the original edge {%d, %d}", batch, mu.Src, mu.Dst)
				}
				if mu.W <= 0 || mu.W > 1 {
					t.Fatalf("batch %d: weight %g outside (0, 1]", batch, mu.W)
				}
			case graph.MutDelete:
				if !present {
					t.Fatalf("batch %d deletes the non-edge {%d, %d}", batch, mu.Src, mu.Dst)
				}
			}
		}
		if inserts != mutateInserts || len(b)-inserts != mutateDeletes {
			t.Fatalf("batch %d has %d inserts and %d deletes", batch, inserts, len(b)-inserts)
		}
	}
}

// The same graph and seed give the byte-identical stream; another seed
// gives another.
func TestMutStreamDeterministic(t *testing.T) {
	csr := testCSR(t)
	draw := func(seed uint64) []graph.Batch {
		s := newMutStream(csr, seed)
		var out []graph.Batch
		for i := 0; i < 5; i++ {
			out = append(out, s.next(100, 30))
		}
		return out
	}
	if a, b := draw(11), draw(11); !reflect.DeepEqual(a, b) {
		t.Error("two streams from one seed differ")
	}
	if a, b := draw(11), draw(12); reflect.DeepEqual(a, b) {
		t.Error("streams from different seeds are equal")
	}
}

// Replaying the stream through MutableCSR lands on BuildCSR of the
// benchmark's own post-batch edge list — the identity the ingest and
// serve-mutate verifications rest on.
func TestApplyToEdgeListMatchesReplay(t *testing.T) {
	csr := testCSR(t)
	s := newMutStream(csr, 5)
	mut := graph.NewMutableCSR(csr, false)
	var batches []graph.Batch
	for i := 0; i < 4; i++ {
		b := s.next(200, 80)
		if _, err := mut.Apply(b); err != nil {
			t.Fatal(err)
		}
		batches = append(batches, b)
	}
	if err := sameCSR(mut.CSR(), graph.BuildCSR(applyToEdgeList(csr, batches), homogenized)); err != nil {
		t.Error(err)
	}
}

func TestMutStreamRefusesToEmptyTheGraph(t *testing.T) {
	csr := testCSR(t)
	defer func() {
		if recover() == nil {
			t.Error("deleting more than half the edges did not panic")
		}
	}()
	newMutStream(csr, 1).next(0, int(csr.NumEdges()/4)+1)
}
