// Command shortcutd is the long-running shortcut service: an HTTP/JSON
// server around internal/shortcutsvc. POST /shortcut accepts a scenario
// registry reference (family+n+seed) or an uploaded edge list plus a
// partition spec, runs the FindShortcut construction on a bounded worker
// pool, and returns the quality measures; repeated queries are served from
// a content-addressed LRU cache of construction results. GET /healthz,
// /metrics and /stats expose liveness and counters.
//
// Examples:
//
//	shortcutd -addr 127.0.0.1:8437
//	curl -s -X POST localhost:8437/shortcut -d \
//	  '{"family":"grid","n":1024,"seed":1,"partition":{"kind":"voronoi","parts":16,"seed":1}}'
//	curl -s localhost:8437/stats
//
// SIGINT/SIGTERM drain in-flight queries before exiting.
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

	"lcshortcut/internal/shortcutsvc"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "shortcutd: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("shortcutd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:8437", "listen address (host:port; port 0 picks a free port)")
		cacheEntries = fs.Int("cache-entries", 256, "LRU cache capacity (one fixed-size result per entry)")
		maxNodes     = fs.Int("max-nodes", 1<<17, "reject graphs larger than this many nodes")
		workers      = fs.Int("construct-workers", 1, "per-construction walk/seal parallelism (0 = GOMAXPROCS)")
		concurrent   = fs.Int("max-concurrent", 0, "bound on concurrent constructions (0 = GOMAXPROCS)")
		drain        = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight queries")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fmt.Errorf("invalid arguments")
	}
	if len(fs.Args()) > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	svc := shortcutsvc.New(shortcutsvc.Config{
		CacheEntries:     *cacheEntries,
		MaxNodes:         *maxNodes,
		ConstructWorkers: *workers,
		MaxConcurrent:    *concurrent,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	return serve(ctx, ln, svc, out, *drain)
}

// Connection timeouts. readHeaderTimeout closes the connection of a client
// that stops inside its request header. The drain waits for such a
// connection until net/http itself gives up on it, about 5 s after accept,
// so the timeout sits well below that. idleTimeout closes keep-alive
// connections a client left open. There is no write timeout: a cold
// construction runs for seconds, and a write deadline would cut its valid
// reply.
const (
	readHeaderTimeout = 2 * time.Second
	idleTimeout       = time.Minute
)

// serve runs the HTTP server on ln until ctx is cancelled, then drains
// in-flight queries within the drain budget. Factored from run so tests can
// inject their own listener and cancellation.
func serve(ctx context.Context, ln net.Listener, svc *shortcutsvc.Service, out io.Writer, drain time.Duration) error {
	srv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	fmt.Fprintf(out, "shortcutd listening on %s\n", ln.Addr())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err // listener failed before shutdown was requested
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "shortcutd: draining in-flight queries")
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	st := svc.Stats()
	fmt.Fprintf(out, "shortcutd: served %d requests (%d hits, %d misses, %d coalesced, %d errors), cache %d entries\n",
		st.Requests, st.Hits, st.Misses, st.Coalesced, st.Errors, st.CacheSize)
	return nil
}
