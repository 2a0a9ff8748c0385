package main

import (
	"fmt"
	"time"
)

// maxErrs bounds the failure messages a rec keeps; the count is exact.
const maxErrs = 8

// rec collects what the ops of one round produced: counts, per-class
// latencies, named samples for the per-layer metrics, and a checksum of
// the outputs that timed rounds compare with the warm-up round's.
type rec struct {
	lane *lane // nil when untraced
	// verify marks the warm-up round: workloads validate every output
	// against the serial references instead of only checksumming it.
	verify bool
	// allocs makes op record the bytes allocated during each call. It
	// reads MemStats (a stop-the-world) around every op, so only the
	// traced run's rung pass sets it, on single-goroutine rounds.
	allocs bool

	ops    int
	failed int
	errs   []string
	sum    uint64
	// lat holds seconds per op class ("gap.sssp", "http.bfs", ...).
	lat map[string][]float64
	// vals holds other per-class samples (modeled seconds, bytes, ...).
	vals map[string][]float64
}

func newRec(l *lane, verify bool) *rec {
	return &rec{lane: l, verify: verify, lat: map[string][]float64{}, vals: map[string][]float64{}}
}

// op times one call into a layer, records its span and latency, and
// counts it; an error counts as a failed op.
func (r *rec) op(layer, class string, fn func() error) time.Duration {
	var a0 uint64
	if r.allocs {
		a0 = allocBytes()
	}
	h := r.lane.begin(layer, class)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.lane.end(h)
	if r.allocs {
		r.val(class+".alloc_b", float64(allocBytes()-a0))
	}
	r.ops++
	r.lat[class] = append(r.lat[class], d.Seconds())
	if err != nil {
		r.fail(class, err)
	}
	return d
}

// fail counts one wrong output or failed call.
func (r *rec) fail(class string, err error) {
	r.failed++
	if len(r.errs) < maxErrs {
		r.errs = append(r.errs, fmt.Sprintf("%s: %v", class, err))
	}
}

// check runs a validation only on the warm-up round.
func (r *rec) check(class string, validate func() error) {
	if !r.verify {
		return
	}
	if err := validate(); err != nil {
		r.fail(class, err)
	}
}

func (r *rec) val(name string, v float64) { r.vals[name] = append(r.vals[name], v) }

// mix folds one output word into the round checksum (FNV-1a step over
// 64-bit words; order-sensitive, so a round's ops must run in a fixed
// order on the goroutine that owns the rec).
func (r *rec) mix(x uint64) { r.sum = (r.sum ^ x) * 1099511628211 }

// merge folds another rec (a client goroutine's) into r.
func (r *rec) merge(o *rec) {
	r.ops += o.ops
	r.failed += o.failed
	for _, e := range o.errs {
		if len(r.errs) < maxErrs {
			r.errs = append(r.errs, e)
		}
	}
	r.mix(o.sum)
	for k, v := range o.lat {
		r.lat[k] = append(r.lat[k], v...)
	}
	for k, v := range o.vals {
		r.vals[k] = append(r.vals[k], v...)
	}
}
