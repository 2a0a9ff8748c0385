package server

import (
	"fmt"
	"sync"
)

// decision is an admission outcome.
type decision int

const (
	admitOK decision = iota
	admitDegraded
	shedQueueFull
	shedThrottled
)

// tokenBucket is a standard rate limiter over an explicit clock: the
// caller supplies `now` in seconds, so the same bucket runs on wall
// time in the live daemon and on virtual time in the deterministic
// load simulation.
type tokenBucket struct {
	qps    float64 // refill rate; <= 0 disables throttling
	burst  float64
	tokens float64
	last   float64
}

func newTokenBucket(qps, burst float64) tokenBucket {
	if burst < 1 {
		burst = 1
	}
	return tokenBucket{qps: qps, burst: burst, tokens: burst}
}

// allow consumes one token if available. now must be monotonically
// non-decreasing across calls.
func (b *tokenBucket) allow(now float64) bool {
	if b.qps <= 0 {
		return true
	}
	if now > b.last {
		b.tokens += (now - b.last) * b.qps
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// AdmitConfig parameterizes the admission controller.
type AdmitConfig struct {
	// QueueCap bounds the FIFO queue; a request arriving at depth ==
	// QueueCap is shed immediately. Must be >= 1.
	QueueCap int
	// DegradeWatermark is the queue depth at or above which degradable
	// queries are answered from the sketch. 0 disables degradation;
	// values above QueueCap never trigger.
	DegradeWatermark int
	// QPS and Burst parameterize the token bucket; QPS <= 0 disables
	// throttling.
	QPS, Burst float64
}

func (c AdmitConfig) validate() error {
	if c.QueueCap < 1 {
		return fmt.Errorf("server: queue capacity %d < 1", c.QueueCap)
	}
	if c.DegradeWatermark < 0 {
		return fmt.Errorf("server: negative degrade watermark %d", c.DegradeWatermark)
	}
	return nil
}

// admitter serializes admission decisions: queue-full check, token
// bucket, degrade watermark, and the depth ledger, under one mutex so
// offered == admitted + shed holds exactly and depth can never pass
// QueueCap. Depth counts admitted-but-not-yet-started queries (the
// queue proper), not queries in service.
type admitter struct {
	mu       sync.Mutex
	cfg      AdmitConfig
	bucket   tokenBucket
	depth    int
	maxDepth int
}

func newAdmitter(cfg AdmitConfig) *admitter {
	return &admitter{cfg: cfg, bucket: newTokenBucket(cfg.QPS, cfg.Burst)}
}

// tryAdmit decides one arrival at time `now`. On admission the depth
// ledger is incremented; the dequeuing executor must call release.
// Shedding order is deliberate: a full queue sheds before a token is
// consumed, so bucket state is not drained by requests that could
// never be queued.
func (a *admitter) tryAdmit(now float64, degradable bool) decision {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.depth >= a.cfg.QueueCap {
		return shedQueueFull
	}
	if !a.bucket.allow(now) {
		return shedThrottled
	}
	d := admitOK
	if degradable && a.cfg.DegradeWatermark > 0 && a.depth >= a.cfg.DegradeWatermark {
		d = admitDegraded
	}
	a.depth++
	if a.depth > a.maxDepth {
		a.maxDepth = a.depth
	}
	return d
}

// tryReserve claims a queue slot without consulting the token bucket
// — for maintenance (a mutate) that must respect the queue
// bound but is not client traffic. Caller must release as usual.
func (a *admitter) tryReserve() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.depth >= a.cfg.QueueCap {
		return false
	}
	a.depth++
	if a.depth > a.maxDepth {
		a.maxDepth = a.depth
	}
	return true
}

// release records one query leaving the queue for service.
func (a *admitter) release() {
	a.mu.Lock()
	if a.depth <= 0 {
		a.mu.Unlock()
		panic("server: admitter release without admit")
	}
	a.depth--
	a.mu.Unlock()
}

// Depth returns the current queue depth.
func (a *admitter) Depth() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.depth
}

// MaxDepth returns the high-water mark, for the queue-bound proofs.
func (a *admitter) MaxDepth() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.maxDepth
}
