package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
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

// start runs the daemon on a loopback port with kron-8 and args, and
// returns once it is serving.
func start(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{
		g:      &gate{addr: make(chan string, 1), held: make(chan struct{}), release: make(chan struct{})},
		exited: make(chan error, 1), answered: make(chan reply, 1),
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	t.Cleanup(cancel)
	go func() {
		d.exited <- run(ctx, append([]string{"-addr", "127.0.0.1:0", "-dataset", "kron-8"}, args...), d.g)
	}()
	select {
	case d.addr = <-d.g.addr:
	case err := <-d.exited:
		t.Fatalf("run exited before serving: %v", err)
	}
	return d
}

// query sends one GET on a connection of its own and reads the reply.
func query(addr, path string) reply {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return reply{resp.StatusCode, body, err}
}

// startHolding starts run and submits one query, returning once that
// query is in flight (its log write held by the gate).
func startHolding(t *testing.T) *daemon {
	t.Helper()
	d := start(t, "-log-queries")
	go func() { d.answered <- query(d.addr, "/v1/query?op=bfs&src=0&dst=5") }()
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
	st := ledger(t, probe, d.addr)
	if st.Offered != 1 || st.Admitted != 1 {
		t.Errorf("refused query entered the ledger: offered %d, admitted %d, want 1 and 1", st.Offered, st.Admitted)
	}
	if err := st.Conservation(); err != nil {
		t.Error(err)
	}
	d.finish(t)
}

// ledger reads the daemon's counters on c as the simulator's ledger.
func ledger(t *testing.T, c net.Conn, addr string) server.SimStats {
	t.Helper()
	resp, body := get(t, c, addr, "/v1/metrics")
	var m server.MetricsSnapshot
	if err := json.Unmarshal(body, &m); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d, %v, body %s", resp.StatusCode, err, body)
	}
	return server.SimStats{
		Offered: int(m.Offered), Admitted: int(m.Admitted),
		ShedQueueFull: int(m.ShedQueueFull), ShedThrottled: int(m.ShedThrottled),
		Completed: int(m.Completed), DeadlineExceeded: int(m.DeadlineExceeded),
		Errors: int(m.Errors + m.Panics),
	}
}

// SIGTERM under load: six queries admitted — two in flight on the
// executors (their log writes held), four queued behind them — and
// three more arriving during the grace period on connections opened
// before the signal. Every admitted query gets its 200 and every late
// one 503 + "Connection: close", and the counters the daemon serves once
// the admitted have finished hold both conservation identities exactly:
// offered = admitted = completed = 6.
func TestDrainUnderLoadServesEveryAdmittedQuery(t *testing.T) {
	const admitted, late = 6, 3
	d := start(t, "-log-queries")
	lateConns := make([]net.Conn, late)
	for i := range lateConns {
		lateConns[i] = openConn(t, d.addr)
	}
	probe := openConn(t, d.addr)
	replies := make(chan reply, admitted)
	for i := 0; i < admitted; i++ {
		go func() { replies <- query(d.addr, fmt.Sprintf("/v1/query?op=bfs&src=%d&dst=5", i)) }()
	}
	<-d.g.held
	for deadline := time.Now().Add(shutdownGrace / 2); ; time.Sleep(5 * time.Millisecond) {
		r := query(d.addr, "/v1/metrics")
		var m server.MetricsSnapshot
		if r.err != nil || json.Unmarshal(r.body, &m) != nil {
			t.Fatalf("metrics: %v, body %s", r.err, r.body)
		}
		if m.Admitted == admitted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d queries admitted", m.Admitted, admitted)
		}
	}
	d.signalAndWaitForRefusal(t)

	for i, c := range lateConns {
		resp, body := get(t, c, d.addr, fmt.Sprintf("/v1/query?op=bfs&src=%d&dst=7", i))
		if resp.StatusCode != http.StatusServiceUnavailable || !resp.Close {
			t.Errorf("late query %d: status %d, Connection: close %v, body %s; want 503 and close", i, resp.StatusCode, resp.Close, body)
		}
	}
	select {
	case r := <-replies:
		t.Fatalf("an admitted query was answered (%d, %v) while the executors were held", r.status, r.err)
	default:
	}

	close(d.g.release)
	for i := 0; i < admitted; i++ {
		if r := <-replies; r.err != nil || r.status != http.StatusOK {
			t.Errorf("admitted query: status %d, err %v, body %s", r.status, r.err, r.body)
		}
	}
	// The probe connection, opened before the signal and not yet used,
	// keeps the daemon up until it is answered.
	st := ledger(t, probe, d.addr)
	if st.Offered != admitted || st.Admitted != admitted || st.Completed != admitted {
		t.Errorf("ledger %+v: want offered = admitted = completed = %d", st, admitted)
	}
	if err := st.Conservation(); err != nil {
		t.Error(err)
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

// A client that trickles its request headers is cut off once
// readHeaderTimeout has passed since it connected, while a
// well-behaved client on another connection is served meanwhile.
func TestSlowHeadersAreCutOffWhileOthersAreServed(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 500 * time.Millisecond
	d := start(t)

	began := time.Now()
	slow, err := net.Dial("tcp", d.addr)
	if err != nil {
		t.Fatal(err)
	}
	trickled := make(chan struct{})
	go func() {
		defer close(trickled)
		// One header byte every 20 ms: never idle for long, never done.
		header := "GET /v1/healthz HTTP/1.1\r\nHost: " + d.addr + "\r\nX-Slow: "
		for i := 0; ; i++ {
			b := byte('z')
			if i < len(header) {
				b = header[i]
			}
			if _, err := slow.Write([]byte{b}); err != nil {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	if r := query(d.addr, "/v1/query?op=bfs&src=0&dst=5"); r.err != nil || r.status != http.StatusOK {
		t.Errorf("well-behaved query: status %d, err %v, body %s", r.status, r.err, r.body)
	}
	if served := time.Since(began); served >= readHeaderTimeout {
		t.Errorf("the well-behaved query took %v, past the slow client's %v allowance", served, readHeaderTimeout)
	}

	// net/http answers a header timeout with 400 and "Connection: close"
	// and hangs up; a reset may overtake the 400.
	slow.SetReadDeadline(time.Now().Add(shutdownGrace))
	got, err := io.ReadAll(slow)
	cut := time.Since(began)
	if errors.Is(err, os.ErrDeadlineExceeded) || !bytes.HasPrefix([]byte("HTTP/1.1 400 "), got[:min(len(got), 13)]) {
		t.Errorf("slow client: read %q, err %v; want the connection closed, after at most a 400", got, err)
	}
	if cut < readHeaderTimeout {
		t.Errorf("slow client cut off after %v, before the %v header timeout", cut, readHeaderTimeout)
	}
	slow.Close()
	<-trickled

	d.cancel()
	if err := <-d.exited; err != nil {
		t.Errorf("run returned %v after a clean shutdown", err)
	}
}
