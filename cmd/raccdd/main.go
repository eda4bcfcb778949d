// Command raccdd serves the simulator over HTTP: a job queue for single
// runs and whole evaluation sweeps, a content-addressed result cache that
// deduplicates identical simulations across all clients, SSE progress
// streams, and results as exactly the CSV `sweep -csv` writes. See
// docs/SERVICE.md for the API and docs/OBSERVABILITY.md for the log,
// trace and profiling surface.
//
//	raccdd                              # listen on :8080, ephemeral cache
//	raccdd -addr :9090 -cache ~/.raccd  # persistent cache shared with
//	                                    # `sweep -cache ~/.raccd`
//	raccdd -max-cache-mb 512            # LRU-bound the cache
//	raccdd -workers http://h1:8080,http://h2:8080
//	                                    # coordinator mode: partition runs
//	                                    # across worker daemons by
//	                                    # rendezvous hash (docs/SERVICE.md)
//	raccdd -log-level debug             # per-run execution logs
//	raccdd -pprof-addr 127.0.0.1:6060   # opt-in net/http/pprof listener
//
// The daemon logs one JSON object per line on stderr (log/slog); job
// lines carry the request's trace ID so a grep for one trace follows a
// batch across a whole worker fleet.
//
// On SIGINT/SIGTERM the daemon stops accepting work, drains in-flight
// jobs for up to -drain (default 30s), then cancels whatever remains and
// exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"raccd/internal/obs"         //raccd:layering-ok the daemon owns the process: it constructs the JSON logger the service layer only consumes
	"raccd/internal/resultstore" //raccd:layering-ok the daemon opens/evicts the on-disk store it hands to service.Options
	"raccd/internal/service"
)

// run parses args, starts the daemon and blocks until ctx is cancelled
// and the drain completes. It returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("raccdd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		cacheDir   = fs.String("cache", "", "result cache directory (default: a fresh temp dir)")
		maxCacheMB = fs.Uint64("max-cache-mb", 0, "cache size bound in MiB (0 = unbounded)")
		jobs       = fs.Int("jobs", 0, "runs in flight per backend, shared by all jobs (0 = one per CPU in-process, 4 per worker)")
		queueDepth = fs.Int("queue", 64, "max unfinished jobs before submissions get 503")
		drain      = fs.Duration("drain", 30*time.Second, "shutdown deadline for in-flight jobs")
		workers    = fs.String("workers", "", "comma-separated worker raccdd URLs; runs execute on the fleet instead of in-process, partitioned by rendezvous hash")
		logLevel   = fs.String("log-level", "info", "minimum log level: debug, info, warn or error (debug adds a line per executed run)")
		pprofAddr  = fs.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintln(stderr, "raccdd: bad -log-level:", err)
		return 2
	}

	dir := *cacheDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "raccdd-cache-")
		if err != nil {
			fmt.Fprintln(stderr, "raccdd:", err)
			return 1
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "raccdd:", err)
		return 1
	}
	return serve(ctx, serveOptions{
		cacheDir:   dir,
		maxBytes:   *maxCacheMB << 20,
		inFlight:   *jobs,
		queueDepth: *queueDepth,
		drain:      *drain,
		workers:    splitList(*workers),
		logLevel:   level,
		pprofAddr:  *pprofAddr,
	}, ln, stdout, stderr)
}

// splitList parses a comma-separated flag value, dropping empty entries
// so trailing commas are harmless.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// serveOptions carries the resolved daemon configuration.
type serveOptions struct {
	cacheDir   string
	maxBytes   uint64
	inFlight   int
	queueDepth int
	drain      time.Duration
	workers    []string
	logLevel   slog.Level
	pprofAddr  string
}

// pprofMux builds a mux exposing the standard /debug/pprof endpoints.
// The daemon keeps profiling off its service listener: it binds only
// when -pprof-addr is set, on an address the operator chose.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// readHeaderTimeout bounds how long a client may take to send a
// request's headers, so a stalled or hostile connection cannot hold a
// server goroutine forever. It bounds nothing after the headers: SSE
// streams and result downloads run as long as they need.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer returns the http.Server the daemon mounts h on, for the
// API and pprof listeners alike.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

// serve runs the daemon on an already-bound listener until ctx is
// cancelled, then drains. Split from run so tests can bind :0 themselves.
func serve(ctx context.Context, opts serveOptions, ln net.Listener, stdout, stderr io.Writer) int {
	logger := obs.NewLogger(stderr, opts.logLevel)
	store, err := resultstore.Open(opts.cacheDir)
	if err != nil {
		logger.Error("startup failed", "err", err.Error())
		ln.Close()
		return 1
	}
	store.MaxBytes = opts.maxBytes
	svc, err := service.New(service.Options{
		Store:      store,
		InFlight:   opts.inFlight,
		QueueDepth: opts.queueDepth,
		Workers:    opts.workers,
		Logger:     logger,
	})
	if err != nil {
		logger.Error("startup failed", "err", err.Error())
		ln.Close()
		return 1
	}

	hs := newHTTPServer(svc.Handler())
	logger.Info("listening", "addr", ln.Addr().String(), "cache", opts.cacheDir)
	if len(opts.workers) > 0 {
		logger.Info("coordinating workers", "count", len(opts.workers), "workers", opts.workers)
	}
	var ps *http.Server
	if opts.pprofAddr != "" {
		pln, err := net.Listen("tcp", opts.pprofAddr)
		if err != nil {
			logger.Error("pprof listen failed", "addr", opts.pprofAddr, "err", err.Error())
			sctx, scancel := context.WithTimeout(context.Background(), time.Second)
			svc.Shutdown(sctx)
			scancel()
			ln.Close()
			return 1
		}
		ps = newHTTPServer(pprofMux())
		logger.Info("pprof listening", "addr", pln.Addr().String())
		go ps.Serve(pln)
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		logger.Error("serve failed", "err", err.Error())
		return 1
	case <-ctx.Done():
	}

	// Drain: finish in-flight jobs under the deadline, then close the
	// HTTP side (SSE streams have received their terminal events by now).
	logger.Info("shutting down, draining jobs", "deadline", opts.drain.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), opts.drain)
	defer cancel()
	code := 0
	if err := svc.Shutdown(drainCtx); err != nil {
		logger.Warn("drain deadline hit, in-flight jobs canceled")
		code = 1
	}
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := hs.Shutdown(httpCtx); err != nil {
		hs.Close()
	}
	if ps != nil {
		ps.Close()
	}
	st := svc.Stats()
	logger.Info("served runs, bye",
		"runs_completed", st.RunsCompleted, "sims_run", st.SimsRun, "cache_hits", st.CacheHits)
	return code
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		// First signal: drain. Second signal: default handling, die now.
		<-ctx.Done()
		stop()
	}()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}
