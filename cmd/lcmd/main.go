// Command lcmd runs the simulator's grid as a long-running HTTP service:
// grid jobs (Table-1 cells × memory systems) are submitted behind a
// bounded-concurrency queue with streaming NDJSON progress, a
// content-addressed result cache keyed on the full deterministic run
// tuple, and a Prometheus-text /metrics endpoint exporting the per-node
// simulation counters.  A job's result is the bytes `lcmbench -detjson`
// writes for the same tuple.  The interconnect sweep and the chaos and
// recovery campaigns run under `lcmbench -netsweep`, `-chaos` and
// `-recovery`; the protocol model checker is `lcmcheck`.
//
// Usage:
//
//	lcmd [-addr HOST:PORT] [-workers N] [-queue N] [-cache-entries N]
//
// API:
//
//	POST /jobs                submit a JobSpec; returns {id, state, cache}
//	GET  /jobs                list jobs
//	GET  /jobs/{id}           job status
//	GET  /jobs/{id}/progress  NDJSON event stream until the job ends
//	GET  /jobs/{id}/result    result JSON (X-Lcmd-Cache: hit|miss)
//	GET  /metrics             Prometheus text exposition
//	GET  /cache/stats         result-cache statistics
//	GET  /healthz             liveness (503 while draining)
//
// On SIGTERM or SIGINT the server drains gracefully: new submissions and
// health checks turn 503, jobs still queued are cancelled with a
// structured terminal progress event (so no client hangs on a dead
// stream), running jobs finish, and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lcm/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the whole program with process concerns made explicit so tests
// can drive it: args and streams are injected, and ready (when non-nil)
// receives the bound listen address once the server is serving.  It
// returns the exit code: 0 after a clean drain, 1 on serve errors, 2 on
// unusable flags.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("lcmd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8347", "listen address")
	workers := fs.Int("workers", 2, "concurrent job executions")
	queue := fs.Int("queue", 64, "bounded queue depth; submissions past it fail fast with 503")
	cacheEntries := fs.Int("cache-entries", 256, "content-addressed result cache capacity")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workers < 1 || *queue < 1 || *cacheEntries < 1 {
		fmt.Fprintln(stderr, "lcmd: -workers, -queue and -cache-entries must be >= 1")
		return 2
	}

	srv := serve.New(serve.Options{
		Workers: *workers, QueueDepth: *queue, CacheEntries: *cacheEntries,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "lcmd:", err)
		return 1
	}
	hs := &http.Server{Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(stdout, "lcmd: listening on %s (workers=%d queue=%d cache=%d)\n",
		ln.Addr(), *workers, *queue, *cacheEntries)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-errc:
		fmt.Fprintln(stderr, "lcmd:", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: refuse new work, cancel queued jobs with their
	// structured 503 events, let running jobs finish, then close the
	// listener once the progress streams have ended on their own.
	fmt.Fprintln(stdout, "lcmd: draining (queued jobs cancelled, running jobs finishing)...")
	srv.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "lcmd: shutdown:", err)
		return 1
	}
	<-errc // Serve has returned ErrServerClosed
	fmt.Fprintln(stdout, "lcmd: drained cleanly")
	return 0
}
