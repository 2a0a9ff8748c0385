package server

import (
	"context"
	"sync"
	"testing"
	"time"
)

// resettableGate is a gateWriter whose gate can be re-armed between
// wedge cycles: a nil gate passes writes through, a live channel
// blocks them until closed. blocked counts the writes waiting on a
// gate.
type resettableGate struct {
	mu      sync.Mutex
	gate    chan struct{}
	blocked int
}

func (w *resettableGate) Write(p []byte) (int, error) {
	w.mu.Lock()
	g := w.gate
	if g != nil {
		w.blocked++
	}
	w.mu.Unlock()
	if g != nil {
		<-g
		w.mu.Lock()
		w.blocked--
		w.mu.Unlock()
	}
	return len(p), nil
}

func (w *resettableGate) waiting() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.blocked
}

func (w *resettableGate) set(g chan struct{}) {
	w.mu.Lock()
	w.gate = g
	w.mu.Unlock()
}

// TestRefreshRebuildsDegradationSketch is the regression wall for the
// stale-sketch refresh bug: POST /refresh used to swap the
// precomputed vectors but keep the startup degradation sketch, so
// degraded BFS/SSSP answers after a refresh came from stale state.
// The test forces a degraded answer (wedge the lone executor, queue a
// filler so the probe is admitted at depth >= DegradeWatermark),
// refreshes, and asserts the sketch generation advanced, the snapshot
// hands out a different sketch object, and post-refresh degraded
// answers still match an independently built sketch.
func TestRefreshRebuildsDegradationSketch(t *testing.T) {
	w := &resettableGate{}
	s, err := NewFromEdgeList(testEdgeList(t), Config{
		Executors: 1,
		Admit:     AdmitConfig{QueueCap: 4, DegradeWatermark: 1},
		QueryLog:  w,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	const probeSrc, probeDst = 5, 11

	// degradedAnswer wedges the executor inside its log write, queues a
	// filler (admitted at depth 0: normal) and then the probe (admitted
	// at depth 1 >= watermark 1: degraded), unwedges, and returns the
	// probe's response. Admission decisions are made while the executor
	// provably cannot dequeue, so the degraded marking is deterministic.
	degradedAnswer := func() Response {
		gate := make(chan struct{})
		w.set(gate)
		base := s.Metrics().Admitted
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Submit(ctx, Query{Op: OpBFS, Source: 9, Target: 0})
		}()
		deadline := time.Now().Add(5 * time.Second)
		for s.Metrics().Admitted != base+1 || s.QueueDepth() != 0 {
			if time.Now().After(deadline) {
				t.Fatal("executor never picked up the wedge query")
			}
			time.Sleep(10 * time.Microsecond)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Submit(ctx, Query{Op: OpBFS, Source: 1, Target: 2})
		}()
		for s.QueueDepth() != 1 {
			if time.Now().After(deadline) {
				t.Fatal("filler query never queued")
			}
			time.Sleep(10 * time.Microsecond)
		}
		var probe Response
		wg.Add(1)
		go func() {
			defer wg.Done()
			probe = s.Submit(ctx, Query{Op: OpBFS, Source: probeSrc, Target: probeDst})
		}()
		for s.QueueDepth() != 2 {
			if time.Now().After(deadline) {
				t.Fatal("probe query never queued")
			}
			time.Sleep(10 * time.Microsecond)
		}
		close(gate)
		w.set(nil)
		wg.Wait()
		return probe
	}

	// An independently built sketch over the server's start graph is the
	// ground truth both before and after refresh (the rebuild is
	// deterministic, so both generations must agree with it).
	want := BuildSketch(testGraph(t).Out, s.cfg.Landmarks).EstimateHops(probeSrc, probeDst)

	before := degradedAnswer()
	if before.Status != StatusOK || !before.Degraded {
		t.Fatalf("pre-refresh probe not served degraded: %+v", before)
	}
	if before.Value != want {
		t.Fatalf("pre-refresh degraded answer %v, want sketch estimate %v", before.Value, want)
	}
	if gen := s.SketchGeneration(); gen != 1 {
		t.Fatalf("startup sketch generation %d, want 1", gen)
	}
	sk1 := s.pub.Load().sketch

	if err := s.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if gen := s.SketchGeneration(); gen != 2 {
		t.Fatalf("post-refresh sketch generation %d, want 2 (sketch not rebuilt)", gen)
	}
	sk2 := s.pub.Load().sketch
	if sk1 == sk2 {
		t.Fatal("refresh kept serving the startup sketch object")
	}

	after := degradedAnswer()
	if after.Status != StatusOK || !after.Degraded {
		t.Fatalf("post-refresh probe not served degraded: %+v", after)
	}
	if after.Value != want {
		t.Fatalf("post-refresh degraded answer %v, want rebuilt-sketch estimate %v", after.Value, want)
	}
}
