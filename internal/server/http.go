package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"github.com/hpcl-repro/epg/internal/graph"
)

// Handler returns the daemon's HTTP API, versioned under /v1:
//
//	GET  /v1/query?op=bfs&src=3&dst=9[&k=2][&deadline_ms=50]
//	GET  /v1/metrics
//	GET  /v1/healthz
//	POST /v1/refresh
//	POST /v1/mutate      {"ops":[{"op":"insert","src":1,"dst":2,"w":0.5}, ...]}
//
// Status mapping: 200 served (including degraded answers — check the
// "degraded" field); every non-200 carries a structured error body
// {"code","message","retry_after_ms"}: 400 invalid_query, 405
// method_not_allowed, 413 too_large (a mutate body or batch over the
// fixed caps), 429 shed (Retry-After header and retry_after_ms agree),
// 500 panic or engine_error, 503 closed, 504 deadline.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/refresh", s.handleRefresh)
	mux.HandleFunc("/v1/mutate", s.handleMutate)
	return mux
}

// API error codes (the "code" field of non-200 bodies).
const (
	codeInvalidQuery     = "invalid_query"
	codeShed             = "shed"
	codeDeadline         = "deadline"
	codePanic            = "panic"
	codeEngineError      = "engine_error"
	codeClosed           = "closed"
	codeMethodNotAllowed = "method_not_allowed"
	codeTooLarge         = "too_large"
)

// Caps on one POST /v1/mutate: the body is read through a
// MaxBytesReader, and a batch holds one queue slot and one maintenance
// turn however long it is, so its op count is bounded too.
const (
	maxMutateBodyBytes = 1 << 20
	maxMutateOps       = 4096
)

// shedRetryAfterMS is the backoff hint on 429 responses; the
// Retry-After header is the same value in (integer) seconds.
const shedRetryAfterMS = 1000

// apiError is the structured body of every non-200 response.
type apiError struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int    `json:"retry_after_ms,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeError emits a non-200 with the structured error body; sheds
// also carry the Retry-After header, agreeing with the body's hint, and
// a draining server hangs up after its refusal, so a keep-alive client
// reconnects elsewhere instead of asking again.
func writeError(w http.ResponseWriter, httpCode int, code, message string) {
	e := apiError{Code: code, Message: message}
	switch code {
	case codeShed:
		e.RetryAfterMS = shedRetryAfterMS
		w.Header().Set("Retry-After", strconv.Itoa(shedRetryAfterMS/1000))
	case codeClosed:
		w.Header().Set("Connection", "close")
	}
	writeJSON(w, httpCode, e)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "GET only")
		return
	}
	q, err := parseQueryParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidQuery, err.Error())
		return
	}
	resp := s.Submit(r.Context(), q)
	switch resp.Status {
	case StatusShed:
		writeError(w, http.StatusTooManyRequests, codeShed, resp.Err)
	case StatusDeadline:
		writeError(w, http.StatusGatewayTimeout, codeDeadline, resp.Err)
	case StatusPanic:
		writeError(w, http.StatusInternalServerError, codePanic, resp.Err)
	case StatusError:
		// Validation errors are the client's; engine errors ours.
		if s.draining.Load() {
			writeError(w, http.StatusServiceUnavailable, codeClosed, resp.Err)
		} else if resp.ModeledSec == 0 {
			writeError(w, http.StatusBadRequest, codeInvalidQuery, resp.Err)
		} else {
			writeError(w, http.StatusInternalServerError, codeEngineError, resp.Err)
		}
	default:
		writeJSON(w, http.StatusOK, resp)
	}
}

func parseQueryParams(r *http.Request) (Query, error) {
	v := r.URL.Query()
	q := Query{Op: Op(v.Get("op"))}
	parse := func(key string) (graph.VID, error) {
		u, err := strconv.ParseUint(v.Get(key), 10, 32)
		return graph.VID(u), err
	}
	var err error
	if v.Get("src") != "" {
		if q.Source, err = parse("src"); err != nil {
			return q, err
		}
	}
	if v.Get("dst") != "" {
		if q.Target, err = parse("dst"); err != nil {
			return q, err
		}
	}
	if ks := v.Get("k"); ks != "" {
		if q.K, err = strconv.Atoi(ks); err != nil {
			return q, err
		}
	}
	if ds := v.Get("deadline_ms"); ds != "" {
		ms, err := strconv.ParseFloat(ds, 64)
		if err != nil {
			return q, err
		}
		q.DeadlineSec = ms / 1e3
	}
	return q, nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.Metrics()
	writeJSON(w, http.StatusOK, struct {
		MetricsSnapshot
		QueueDepth    int `json:"queue_depth"`
		MaxQueueDepth int `json:"max_queue_depth"`
	}{snap, s.QueueDepth(), s.MaxQueueDepth()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"dataset":  s.cfg.Dataset,
		"vertices": s.NumVertices(),
		"weighted": s.Weighted(),
	})
}

// handleRefresh serves POST /v1/refresh, the empty mutate.
func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "POST only")
		return
	}
	s.serveMutate(w, r, nil)
}

// mutateOp is one wire-format mutation.
type mutateOp struct {
	Op  string  `json:"op"` // "insert" or "delete"
	Src uint32  `json:"src"`
	Dst uint32  `json:"dst"`
	W   float32 `json:"w,omitempty"`
}

// mutateRequest is the POST /v1/mutate body.
type mutateRequest struct {
	Ops []mutateOp `json:"ops"`
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "POST only")
		return
	}
	var req mutateRequest
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxMutateBodyBytes)).Decode(&req)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge), len(req.Ops) > maxMutateOps:
		writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge,
			fmt.Sprintf("one mutate takes at most %d body bytes and %d ops", maxMutateBodyBytes, maxMutateOps))
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, codeInvalidQuery, "bad mutate body: "+err.Error())
		return
	}
	batch := make(graph.Batch, 0, len(req.Ops))
	for i, op := range req.Ops {
		mu := graph.Mutation{Src: graph.VID(op.Src), Dst: graph.VID(op.Dst), W: op.W}
		switch op.Op {
		case "insert":
			mu.Op = graph.MutInsert
		case "delete":
			mu.Op = graph.MutDelete
		default:
			writeError(w, http.StatusBadRequest, codeInvalidQuery,
				"op "+strconv.Itoa(i)+": unknown kind "+strconv.Quote(op.Op))
			return
		}
		batch = append(batch, mu)
	}
	s.serveMutate(w, r, batch)
}

// serveMutate runs one mutate and writes its report or its error.
func (s *Server) serveMutate(w http.ResponseWriter, r *http.Request, batch graph.Batch) {
	rep, err := s.Mutate(r.Context(), batch)
	switch {
	case errors.Is(err, ErrOverloaded):
		writeError(w, http.StatusTooManyRequests, codeShed, err.Error())
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, codeClosed, err.Error())
	case errors.Is(err, ErrInvalidBatch):
		writeError(w, http.StatusBadRequest, codeInvalidQuery, err.Error())
	case err != nil:
		writeError(w, http.StatusInternalServerError, codeEngineError, err.Error())
	default:
		writeJSON(w, http.StatusOK, map[string]any{
			"status":          "ok",
			"inserted":        rep.Stats.Inserted,
			"deleted":         rep.Stats.Deleted,
			"dup_inserts":     rep.Stats.DupInserts,
			"missing_deletes": rep.Stats.MissingDeletes,
			"self_loops":      rep.Stats.SelfLoops,
			"dirty_rows":      rep.DirtyRows,
			"edges_touched":   rep.EdgesTouched,
			"sketch_gen":      rep.Gen,
		})
	}
}
