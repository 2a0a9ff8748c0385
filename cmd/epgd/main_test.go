package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"regexp"
	"sync"
	"testing"
	"time"

	"github.com/hpcl-repro/epg/internal/server"
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

type reply struct {
	status int
	body   []byte
	err    error
}

// daemon is run on a loopback port with one query held in flight.
type daemon struct {
	g        *gate
	addr     string
	cancel   context.CancelFunc // what SIGINT / SIGTERM do in main
	exited   chan error
	answered chan reply // the held query's reply
}

// startHolding starts run and submits one query, returning once that
// query is in flight (its log write held by the gate).
func startHolding(t *testing.T) *daemon {
	t.Helper()
	d := &daemon{
		g:      &gate{addr: make(chan string, 1), held: make(chan struct{}), release: make(chan struct{})},
		exited: make(chan error, 1), answered: make(chan reply, 1),
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	t.Cleanup(cancel)
	go func() {
		d.exited <- run(ctx, []string{"-addr", "127.0.0.1:0", "-dataset", "kron-8", "-log-queries"}, d.g)
	}()
	select {
	case d.addr = <-d.g.addr:
	case err := <-d.exited:
		t.Fatalf("run exited before serving: %v", err)
	}
	go func() {
		resp, err := http.Get("http://" + d.addr + "/v1/query?op=bfs&src=0&dst=5")
		if err != nil {
			d.answered <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		d.answered <- reply{resp.StatusCode, body, err}
	}()
	<-d.g.held
	return d
}

// signalAndWaitForRefusal cancels run's context and returns once the
// listener refuses connections: the shutdown has begun.
func (d *daemon) signalAndWaitForRefusal(t *testing.T) {
	t.Helper()
	d.cancel()
	for deadline := time.Now().Add(shutdownGrace / 2); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		c, err := net.Dial("tcp", d.addr)
		if err != nil {
			return
		}
		c.Close() // the listener was still open: leave nothing for Shutdown to wait on
	}
	t.Error("new connections still accepted after cancellation")
}

// finish releases the held query and expects its 200 and a clean exit.
func (d *daemon) finish(t *testing.T) {
	t.Helper()
	close(d.g.release)
	if r := <-d.answered; r.err != nil || r.status != http.StatusOK {
		t.Errorf("in-flight query: status %d, err %v, body %s", r.status, r.err, r.body)
	}
	select {
	case err := <-d.exited:
		if err != nil {
			t.Errorf("run returned %v after a clean shutdown", err)
		}
	case <-time.After(shutdownGrace):
		t.Error("run did not return after its last request finished")
	}
}

// Cancelling run's context is what SIGINT / SIGTERM do in main: the
// listener closes at once, the query in flight still gets its 200, and
// run returns nil (exit status 0) once it has.
func TestShutdownFinishesInFlightQuery(t *testing.T) {
	d := startHolding(t)
	d.signalAndWaitForRefusal(t)
	answered, exited := d.answered, d.exited
	select {
	case r := <-answered:
		t.Fatalf("query answered (%d, %v) while its log write was held", r.status, r.err)
	case err := <-exited:
		t.Fatalf("run returned (%v) with a query in flight", err)
	default:
	}

	d.finish(t)
}

// openConn dials the daemon and returns once the server has accepted
// the connection — a later connection has been served, and accepts are
// in order — so that it is an open connection of the http.Server, not
// one still in the listener's backlog, when the shutdown begins.
func openConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	resp, err := http.Get("http://" + addr + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return c
}

// get sends one keep-alive GET on c and reads the reply.
func get(t *testing.T, c net.Conn, addr, path string) (*http.Response, []byte) {
	t.Helper()
	c.SetDeadline(time.Now().Add(shutdownGrace))
	if _, err := io.WriteString(c, "GET "+path+" HTTP/1.1\r\nHost: "+addr+"\r\n\r\n"); err != nil {
		t.Fatalf("GET %s on the open connection: %v", path, err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil {
		t.Fatalf("GET %s on the open connection: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// The daemon stops admitting before it drains: a query that arrives
// during the grace period on a connection opened before the signal is
// refused with 503 and "Connection: close" instead of being queued
// behind the one in flight, which still gets its 200 — and the refusal
// never enters the admission ledger, so both conservation identities
// hold exactly on the counters the daemon exits with.
func TestShutdownStopsAdmittingBeforeTheDrain(t *testing.T) {
	d := startHolding(t)
	late, probe := openConn(t, d.addr), openConn(t, d.addr)
	d.signalAndWaitForRefusal(t)

	resp, body := get(t, late, d.addr, "/v1/query?op=bfs&src=1&dst=7")
	if resp.StatusCode != http.StatusServiceUnavailable || !resp.Close {
		t.Errorf("query during the grace period: status %d, Connection: close %v, body %s; want 503 and close",
			resp.StatusCode, resp.Close, body)
	}
	var refusal struct{ Code string }
	if err := json.Unmarshal(body, &refusal); err != nil || refusal.Code != "closed" {
		t.Errorf("refusal body %s (%v), want code \"closed\"", body, err)
	}
	select {
	case r := <-d.answered:
		t.Fatalf("the query in flight was answered (%d, %v) while its log write was held", r.status, r.err)
	default:
	}

	// The counters, read on the other open connection while the held
	// query keeps the daemon up (its outcome is counted before its log
	// line is written): one offered, admitted and completed, nothing shed.
	resp, body = get(t, probe, d.addr, "/v1/metrics")
	var m server.MetricsSnapshot
	if err := json.Unmarshal(body, &m); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d, %v, body %s", resp.StatusCode, err, body)
	}
	if m.Offered != 1 || m.Admitted != 1 {
		t.Errorf("refused query entered the ledger: offered %d, admitted %d, want 1 and 1", m.Offered, m.Admitted)
	}
	ledger := server.SimStats{
		Offered: int(m.Offered), Admitted: int(m.Admitted),
		ShedQueueFull: int(m.ShedQueueFull), ShedThrottled: int(m.ShedThrottled),
		Completed: int(m.Completed), DeadlineExceeded: int(m.DeadlineExceeded),
		Errors: int(m.Errors + m.Panics),
	}
	if err := ledger.Conservation(); err != nil {
		t.Error(err)
	}
	d.finish(t)
}
