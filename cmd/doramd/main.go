// Command doramd serves the D-ORAM simulator as a job service: an HTTP
// API over a bounded job queue, a worker pool, and a deduplicating result
// cache (see internal/simsvc and DESIGN.md §12). It can also run as one
// node of a cluster (see internal/cluster and DESIGN.md §13): either as
// the coordinator fronting a worker fleet, or as a worker joined to one.
//
// Usage:
//
//	doramd -addr :8344
//	doramd -addr 127.0.0.1:8344 -workers 4 -queue 128 -cache 256
//	doramd -job-timeout 2m -max-trace 500000 -drain-timeout 10s
//	doramd -log-format json -log-level debug -debug-addr 127.0.0.1:6060
//
//	doramd -coordinator -addr :8443                 cluster front door
//	doramd -addr :8444 -join http://coord:8443      worker in that cluster
//
// Observability (DESIGN.md §15): GET /metrics serves the Prometheus text
// exposition, GET /events a live SSE event stream (the coordinator merges
// every worker's stream into its own), and -debug-addr opens a separate
// listener with net/http/pprof for on-demand profiling. Logs are
// structured (log/slog) in text or JSON via -log-format/-log-level.
//
// SIGTERM or SIGINT drains gracefully: the listener stops accepting,
// queued jobs are cancelled, and running simulations get -drain-timeout
// to finish before being aborted. A one-line drain summary (jobs
// completed/cancelled/failed, cache hit ratio) is logged on exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"doram/internal/cluster"
	"doram/internal/metrics"
	"doram/internal/obslog"
	"doram/internal/simsvc"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8344", "listen address")
		workers      = flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS; a coordinator dispatches through a fixed pool)")
		queueDepth   = flag.Int("queue", 64, "job queue depth; beyond it submissions get 429")
		cacheSize    = flag.Int("cache", 128, "result-cache entries (negative disables caching)")
		jobTimeout   = flag.Duration("job-timeout", 5*time.Minute, "per-job wall-time limit")
		maxTrace     = flag.Uint64("max-trace", 2_000_000, "largest admitted per-core trace length")
		retainJobs   = flag.Int("retain-jobs", simsvc.DefaultRetainJobs, "terminal jobs kept queryable before FIFO eviction (negative = keep all)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long running jobs may finish after SIGTERM/SIGINT")

		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat = flag.String("log-format", "text", "log encoding: text or json")
		debugAddr = flag.String("debug-addr", "", "separate listener for net/http/pprof profiling (off when empty)")

		coordinator = flag.Bool("coordinator", false, "run as a cluster coordinator instead of a simulation worker")
		joinURL     = flag.String("join", "", "coordinator URL to join as a worker (e.g. http://host:8443)")
		advertise   = flag.String("advertise", "", "base URL the coordinator reaches this worker at (default http://<addr>)")
		heartbeat   = flag.Duration("heartbeat", time.Second, "coordinator: worker heartbeat interval")
		nodeTimeout = flag.Duration("node-timeout", 0, "coordinator: heartbeat silence before a worker is dead (0 = 5×heartbeat)")
		hedgeAfter  = flag.Duration("hedge-after", 30*time.Second, "coordinator: straggler delay before hedging a job to a second worker (negative disables)")
		cacheFile   = flag.String("cache-file", "", "result-cache snapshot, loaded on start and written on drain (off when empty)")
	)
	flag.Parse()

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doramd: %v\n", err)
		os.Exit(2)
	}

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "doramd: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *coordinator && *joinURL != "" {
		fmt.Fprintln(os.Stderr, "doramd: -coordinator and -join are mutually exclusive")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	stopDebug := startDebugServer(logger, *debugAddr)
	defer stopDebug()

	svcCfg := simsvc.Config{
		Workers:      *workers,
		QueueDepth:   *queueDepth,
		CacheEntries: *cacheSize,
		JobTimeout:   *jobTimeout,
		MaxTraceLen:  *maxTrace,
		RetainJobs:   *retainJobs,
		Logger:       logger,
	}
	// A coordinator is the same job service with its simulations run on
	// the worker fleet: one serve, drain and summary path for both roles.
	var (
		svc     *simsvc.Service
		handler http.Handler
		coord   *cluster.Coordinator
	)
	if *coordinator {
		coord = cluster.NewCoordinator(cluster.CoordinatorConfig{
			HeartbeatInterval: *heartbeat,
			NodeTimeout:       *nodeTimeout,
			HedgeAfter:        *hedgeAfter,
			Logger:            logger,
			EventFanIn:        true, // merge every worker's /events into ours
			Service:           svcCfg,
		})
		svc, handler = coord.Service(), coord.Handler()
		go coord.Run(ctx)
	} else {
		svc = simsvc.New(svcCfg)
		handler = svc.Handler()
	}
	if *cacheFile != "" {
		n, err := svc.LoadCache(*cacheFile)
		if err != nil {
			fatal(logger, "cache load", err)
		}
		logger.Info("result cache loaded", slog.String("path", *cacheFile), slog.Int("entries", n))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(logger, "listen", err)
	}
	srv := &http.Server{Handler: obslog.HTTPMiddleware(logger, handler)}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	logger.Info("serving",
		slog.String("addr", "http://"+ln.Addr().String()),
		slog.Bool("coordinator", *coordinator),
		slog.Int("queue", *queueDepth),
		slog.Int("cache", *cacheSize))

	if *joinURL != "" {
		adv := *advertise
		if adv == "" {
			adv = "http://" + ln.Addr().String()
		}
		go cluster.Join(ctx, cluster.JoinConfig{
			Coordinator: *joinURL, Advertise: adv, Logger: logger})
	}

	select {
	case err := <-serveErr:
		fatal(logger, "serve", err)
	case <-ctx.Done():
	}

	logger.Info("signal received, draining", slog.Duration("timeout", *drainTimeout))
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Warn("http shutdown", slog.String("error", err.Error()))
	}
	closeErr := svc.Close(drainCtx)
	if coord != nil {
		coord.Shutdown() // stop the fan-in tailers
	}
	if *cacheFile != "" {
		if err := svc.SaveCache(*cacheFile); err != nil {
			logger.Warn("cache save", slog.String("error", err.Error()))
		} else {
			logger.Info("result cache saved", slog.String("path", *cacheFile))
		}
	}
	logDrainSummary(logger, svc.Registry())
	if closeErr != nil {
		if errors.Is(closeErr, context.DeadlineExceeded) {
			logger.Error("drain deadline passed; running jobs aborted")
		} else {
			logger.Error("drain", slog.String("error", closeErr.Error()))
		}
		os.Exit(1)
	}
	logger.Info("drained cleanly")
}

// buildLogger parses the log flags into a structured stderr logger.
func buildLogger(format, level string) (*slog.Logger, error) {
	f, err := obslog.ParseFormat(format)
	if err != nil {
		return nil, err
	}
	lv, err := obslog.ParseLevel(level)
	if err != nil {
		return nil, err
	}
	return obslog.New(os.Stderr, f, lv), nil
}

func fatal(logger *slog.Logger, what string, err error) {
	logger.Error(what, slog.String("error", err.Error()))
	os.Exit(1)
}

// startDebugServer opens the pprof listener when addr is set. The debug
// surface stays off the service port: profiling is opt-in, on an address
// the operator can keep loopback-only.
func startDebugServer(logger *slog.Logger, addr string) func() {
	if addr == "" {
		return func() {}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(logger, "debug listen", err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	logger.Info("profiling enabled",
		slog.String("addr", "http://"+ln.Addr().String()+"/debug/pprof/"))
	return func() { srv.Close() }
}

// logDrainSummary emits the one-line service lifetime summary on exit,
// with the fleet counters when the service is a coordinator.
func logDrainSummary(logger *slog.Logger, reg *metrics.Registry) {
	cv := reg.CounterValues()
	hits, misses := cv["simsvc.cache.hits"], cv["simsvc.cache.misses"]
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	attrs := []any{
		slog.Uint64("completed", cv["simsvc.jobs.completed"]),
		slog.Uint64("cancelled", cv["simsvc.jobs.cancelled"]),
		slog.Uint64("failed", cv["simsvc.jobs.failed"]),
		slog.Uint64("cache_hits", hits),
		slog.Uint64("cache_misses", misses),
		slog.String("hit_ratio", fmt.Sprintf("%.1f%%", 100*ratio)),
	}
	if _, ok := cv["cluster.nodes.alive"]; ok {
		attrs = append(attrs,
			slog.Uint64("redispatched", cv["cluster.jobs.redispatched"]),
			slog.Uint64("hedged", cv["cluster.jobs.hedged"]),
			slog.Uint64("nodes_alive", cv["cluster.nodes.alive"]),
			slog.Uint64("nodes_dead", cv["cluster.nodes.dead"]))
	}
	logger.Info("drain summary", attrs...)
}
