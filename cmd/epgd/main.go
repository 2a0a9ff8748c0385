// Command epgd is the resident-graph query daemon: it loads one
// dataset, precomputes the PageRank and WCC vectors, and serves point
// queries over HTTP with admission control, modeled deadlines,
// graceful overload degradation, and live streaming mutations with
// incremental vector maintenance (see internal/server).
//
//	epgd -dataset kron-14 -addr :8090 -queue-cap 64 -qps 0
//
//	GET  /v1/query?op=bfs&src=3&dst=9[&deadline_ms=50]
//	GET  /v1/metrics
//	GET  /v1/healthz
//	POST /v1/refresh
//	POST /v1/mutate    {"ops":[{"op":"insert","src":1,"dst":2,"w":0.5}]}
//
// Every non-200 carries a structured {"code","message",
// "retry_after_ms"} body.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/hpcl-repro/epg/internal/server"
)

// shutdownGrace bounds how long a stopping daemon waits for requests
// already in flight.
const shutdownGrace = 10 * time.Second

// readHeaderTimeout cuts off a client that trickles its request
// headers; a variable so that the slow-client test need not wait 5 s.
var readHeaderTimeout = 5 * time.Second

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "epgd: %v\n", err)
		os.Exit(1)
	}
}

// run serves until ctx is cancelled, then stops admitting (a request on
// an already-open connection gets 503 from here on), stops accepting
// connections, lets the requests in flight finish (for at most
// shutdownGrace) and only then stops the executors they are waiting on.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("epgd", flag.ExitOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8090", "listen address")
	dataset := fs.String("dataset", "kron-14", "resident dataset (kron-<scale>, dota-league, cit-Patents)")
	seed := fs.Uint64("seed", 1, "dataset generation seed")
	executors := fs.Int("executors", 2, "engine instances serving in parallel")
	threads := fs.Int("threads", 8, "modeled thread count per executor")
	queueCap := fs.Int("queue-cap", 64, "bounded admission queue capacity (full queue sheds with 429)")
	watermark := fs.Int("watermark", 0, "queue depth at which degradable queries switch to sketch answers (default cap/2)")
	qps := fs.Float64("qps", 0, "token-bucket admission rate in queries/sec (0 disables throttling)")
	burst := fs.Float64("burst", 8, "token-bucket burst size")
	deadlineMS := fs.Float64("deadline-ms", 0, "default modeled service budget in ms (0 = none; per-query deadline_ms overrides)")
	landmarks := fs.Int("landmarks", 8, "landmark count for the degradation sketch")
	compress := fs.Bool("compress", false, "serve from the delta+varint compressed adjacency")
	faults := fs.Bool("fault-injection", false, "permit op=panic queries (soak testing the panic isolation path)")
	logQueries := fs.Bool("log-queries", false, "emit one structured line per query to stderr")
	fs.Parse(args)

	cfg := server.Config{
		Dataset:   *dataset,
		Seed:      *seed,
		Executors: *executors,
		Threads:   *threads,
		Admit: server.AdmitConfig{
			QueueCap:         *queueCap,
			DegradeWatermark: *watermark,
			QPS:              *qps,
			Burst:            *burst,
		},
		DefaultDeadlineSec: *deadlineMS / 1e3,
		Landmarks:          *landmarks,
		Compress:           *compress,
		FaultInjection:     *faults,
	}
	if *logQueries {
		cfg.QueryLog = stderr
	}
	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// A client that trickles its request or parks an idle connection is
	// cut off. No write timeout: a mutate on a large graph takes a while.
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	fmt.Fprintf(stderr, "epgd: serving %s (%d vertices, weighted=%t) on %s\n",
		*dataset, s.NumVertices(), s.Weighted(), ln.Addr())
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stderr, "epgd: shutting down")
	s.Drain()
	grace, cancel := context.WithTimeout(context.WithoutCancel(ctx), shutdownGrace)
	defer cancel()
	if err := hs.Shutdown(grace); err != nil {
		hs.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	<-served // http.ErrServerClosed, since Shutdown began
	return nil
}
