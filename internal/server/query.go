package server

import (
	"fmt"

	"github.com/hpcl-repro/epg/internal/graph"
)

// Op names a point-query kind.
type Op string

const (
	// OpBFS answers the hop distance from Source to Target (-1 if
	// unreachable). Degradable: under overload it is answered from the
	// landmark sketch as an upper bound.
	OpBFS Op = "bfs"
	// OpSSSP answers the weighted shortest-path distance from Source
	// to Target (+Inf encoded as -1 if unreachable). Degradable on
	// weighted datasets.
	OpSSSP Op = "sssp"
	// OpPR answers the precomputed PageRank score of Source.
	OpPR Op = "pr"
	// OpWCC answers 1 if Source and Target share a weakly connected
	// component (precomputed), else 0.
	OpWCC Op = "wcc"
	// OpKHop answers the number of vertices within K hops of Source
	// (inclusive of Source).
	OpKHop Op = "khop"
	// OpPanic deliberately panics inside the executor. Rejected unless
	// Config.FaultInjection is set; exists so the panic-isolation path
	// is drivable from tests and soak runs.
	OpPanic Op = "panic"
)

// Query is one point query.
type Query struct {
	Op     Op        `json:"op"`
	Source graph.VID `json:"src"`
	Target graph.VID `json:"dst,omitempty"`
	K      int       `json:"k,omitempty"`
	// DeadlineSec is the modeled-seconds service budget; 0 uses the
	// server default. The budget covers kernel execution (polled at
	// frontier granularity), not queue wait.
	DeadlineSec float64 `json:"deadline_s,omitempty"`
}

// Status classifies a response.
type Status string

const (
	StatusOK       Status = "ok"
	StatusShed     Status = "shed"     // admission refused (queue full or throttled)
	StatusDeadline Status = "deadline" // budget exhausted mid-kernel
	StatusPanic    Status = "panic"    // recovered executor panic
	StatusError    Status = "error"    // invalid query or engine error
)

// Response is the answer to one query.
type Response struct {
	Op     Op        `json:"op"`
	Source graph.VID `json:"src"`
	Target graph.VID `json:"dst,omitempty"`
	Status Status    `json:"status"`
	// Value is the answer: hop or weighted distance (-1 when
	// unreachable), PR score, WCC same-component 0/1, or k-hop count.
	Value float64 `json:"value"`
	// Degraded marks a sketch-derived upper bound served under
	// overload instead of an exact traversal.
	Degraded bool `json:"degraded,omitempty"`
	// Gen is the published generation that served the query (or that a
	// maintenance published): 1 at start-up, +1 per mutate. 32 bits,
	// beside Degraded, keep Response at 80 bytes: every query allocates
	// one in its reply channel and another to encode it.
	Gen uint32 `json:"gen"`
	// ModeledSec is the modeled service time charged on the executor.
	ModeledSec float64 `json:"modeled_s"`
	Err        string  `json:"err,omitempty"`
}

// response starts the answer to q: the query's identity plus an outcome.
func (q Query) response(status Status, msg string) Response {
	return Response{Op: q.Op, Source: q.Source, Target: q.Target, Status: status, Err: msg}
}

// validate rejects structurally bad queries before they reach
// admission, so sheds and deadlines are never hiding a 400.
func (q Query) validate(n int, weighted, faultInjection bool) error {
	switch q.Op {
	case OpBFS, OpSSSP, OpWCC:
		if int(q.Target) >= n {
			return fmt.Errorf("target %d outside [0,%d)", q.Target, n)
		}
		if q.Op == OpSSSP && !weighted {
			return fmt.Errorf("sssp on unweighted dataset")
		}
	case OpPR:
	case OpKHop:
		if q.K < 0 {
			return fmt.Errorf("negative k %d", q.K)
		}
	case OpPanic:
		if !faultInjection {
			return fmt.Errorf("fault injection disabled")
		}
		return nil // no source check: the point is to reach the executor
	default:
		return fmt.Errorf("unknown op %q", q.Op)
	}
	if int(q.Source) >= n {
		return fmt.Errorf("source %d outside [0,%d)", q.Source, n)
	}
	return nil
}

// degradable reports whether the op has a sketch fallback.
func (q Query) degradable(weighted bool) bool {
	switch q.Op {
	case OpBFS:
		return true
	case OpSSSP:
		return weighted
	}
	return false
}
