package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"regexp"
	"sync"
	"testing"
	"time"
)

// gate is run's stderr. It hands the test the listen address out of
// the start-up banner, and holds the write of the first query log line
// until released: logging happens before the executor answers, so a
// held write is a query deterministically in flight.
type gate struct {
	addr    chan string
	held    chan struct{}
	release chan struct{}
	once    sync.Once
}

var bannerAddr = regexp.MustCompile(`on (127\.0\.0\.1:\d+)\n`)

func (g *gate) Write(p []byte) (int, error) {
	if m := bannerAddr.FindSubmatch(p); m != nil {
		g.addr <- string(m[1])
	}
	if bytes.HasPrefix(p, []byte("query ")) {
		g.once.Do(func() { close(g.held) })
		<-g.release
	}
	return len(p), nil
}

// Cancelling run's context is what SIGINT / SIGTERM do in main: the
// listener closes at once, the query in flight still gets its 200, and
// run returns nil (exit status 0) once it has.
func TestShutdownFinishesInFlightQuery(t *testing.T) {
	g := &gate{addr: make(chan string, 1), held: make(chan struct{}), release: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exited := make(chan error, 1)
	go func() {
		exited <- run(ctx, []string{"-addr", "127.0.0.1:0", "-dataset", "kron-8", "-log-queries"}, g)
	}()
	var addr string
	select {
	case addr = <-g.addr:
	case err := <-exited:
		t.Fatalf("run exited before serving: %v", err)
	}

	type reply struct {
		status int
		body   []byte
		err    error
	}
	answered := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/v1/query?op=bfs&src=0&dst=5")
		if err != nil {
			answered <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		answered <- reply{resp.StatusCode, body, err}
	}()
	<-g.held

	cancel()
	refused := false
	for deadline := time.Now().Add(shutdownGrace / 2); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			refused = true
			break
		}
		c.Close() // the listener was still open: leave nothing for Shutdown to wait on
	}
	if !refused {
		t.Error("new connections still accepted after cancellation")
	}
	select {
	case r := <-answered:
		t.Fatalf("query answered (%d, %v) while its log write was held", r.status, r.err)
	case err := <-exited:
		t.Fatalf("run returned (%v) with a query in flight", err)
	default:
	}

	close(g.release)
	if r := <-answered; r.err != nil || r.status != http.StatusOK {
		t.Errorf("in-flight query: status %d, err %v, body %s", r.status, r.err, r.body)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Errorf("run returned %v after a clean shutdown", err)
		}
	case <-time.After(shutdownGrace):
		t.Error("run did not return after its last request finished")
	}
}
