// Command hped is the simulation-as-a-service daemon: a long-running HTTP
// server exposing the full simulation surface with request coalescing, a
// content-addressed result cache, and cancellable runs. With -coordinator it
// instead fronts a set of hped backends, consistent-hashing each run's
// content address across them and serving the same /v1 surface.
//
// Usage:
//
//	hped                          # listen on 127.0.0.1:7770
//	hped -addr :8080 -workers 8   # public, 8 concurrent simulations
//	hped -cache-mb 1024           # 1 GiB result cache
//	hped -coordinator -backends http://10.0.0.1:7770,http://10.0.0.2:7770
//
// Quickstart:
//
//	curl -s localhost:7770/v1/apps | jq '.[0]'
//	curl -s -X POST localhost:7770/v1/runs \
//	     -d '{"app":"HSD","policy":"hpe","rate":75}' | jq .result.IPC
//	curl -s localhost:7770/metrics | grep hped_cache
//
// Identical concurrent submissions coalesce onto one simulation; repeated
// submissions hit the LRU result cache and return byte-identical bodies in
// microseconds. SIGINT/SIGTERM drains in-flight requests (bounded by
// -shutdown-timeout), cancels whatever remains, flushes the cache stats to
// stderr, and exits. Coordinator mode shares all of it: the same envelope
// vocabulary, the same run IDs, byte-identical sweep bodies (README has the
// cluster quickstart).
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
	"runtime"
	"strings"
	"syscall"
	"time"

	"hpe/internal/cluster"
	"hpe/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Connection timeouts of the daemon's one http.Server. There is no
// WriteTimeout and no ReadTimeout: a suite sweep legitimately streams its
// response minutes after the request arrived. What is bounded is the part a
// client controls before any work starts — delivering the request header —
// and how long an idle keep-alive connection may hold a goroutine.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// run is main with its environment injected, so tests can drive a full
// daemon lifecycle — including real SIGTERM delivery — in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hped", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7770", "listen address")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulations")
	queue := fs.Int("queue", 0, "admitted computations waiting beyond -workers before 429 (0 = 4x workers)")
	cacheMB := fs.Int64("cache-mb", 256, "result-cache budget in MiB")
	shutdownTimeout := fs.Duration("shutdown-timeout", 15*time.Second,
		"how long SIGTERM waits for in-flight requests before cancelling them")
	coordinator := fs.Bool("coordinator", false,
		"run as a cluster coordinator over -backends instead of simulating locally")
	backends := fs.String("backends", "",
		"comma-separated backend base URLs (coordinator mode, required)")
	healthInterval := fs.Duration("health-interval", 2*time.Second,
		"backend /healthz polling period (coordinator mode)")
	dispatchAttempts := fs.Int("dispatch-attempts", 4,
		"ring-walk rounds per shard before backend_unavailable (coordinator mode)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logf := func(format string, a ...any) {
		fmt.Fprintf(stderr, format+"\n", a...)
	}

	// Either role is the one /v1 handler set: a coordinator is a
	// server.Server mounted over its ring executor.
	var d *server.Server
	var role, sizing string
	if *coordinator {
		var urls []string
		for _, b := range strings.Split(*backends, ",") {
			if b = strings.TrimSpace(b); b != "" {
				urls = append(urls, strings.TrimRight(b, "/"))
			}
		}
		coord, err := cluster.New(cluster.Config{
			Backends:       urls,
			HealthInterval: *healthInterval,
			MaxAttempts:    *dispatchAttempts,
			CacheBytes:     *cacheMB << 20,
			Logf:           logf,
		})
		if err != nil {
			fmt.Fprintf(stderr, "hped: %v\n", err)
			return 2
		}
		d, role, sizing = coord.Server, "hped coordinator", fmt.Sprintf("%d backends", len(urls))
	} else {
		d = server.New(server.Config{
			Workers:    *workers,
			QueueDepth: *queue,
			CacheBytes: *cacheMB << 20,
			Logf:       logf,
		})
		role, sizing = "hped", fmt.Sprintf("workers=%d", *workers)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "hped: listen: %v\n", err)
		d.Close()
		return 1
	}
	httpSrv := newHTTPServer(d.Handler())
	fmt.Fprintf(stdout, "%s listening on http://%s (%s, cache=%dMiB)\n", role, ln.Addr(), sizing, *cacheMB)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "hped: serve: %v\n", err)
		d.Close()
		return 1
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, let in-flight requests finish
	// within the timeout, then cancel whatever is still running.
	fmt.Fprintf(stderr, "hped: shutdown signal, draining (timeout %v)\n", *shutdownTimeout)
	d.Drain()
	dctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	drainErr := httpSrv.Shutdown(dctx)
	fmt.Fprintf(stderr, "hped: %s\n", d.Close())
	if drainErr != nil && !errors.Is(drainErr, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "hped: drain: %v (in-flight work cancelled)\n", drainErr)
		return 1
	}
	fmt.Fprintln(stderr, "hped: drained cleanly")
	return 0
}

// newHTTPServer wraps h in the daemon's http.Server.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}
