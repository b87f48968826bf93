// Command doramload is the open-loop production-traffic benchmark for the
// doramd serving stack (DESIGN.md §16). It plans a deterministic request
// stream — Zipf-distributed keys over per-tenant ORAM trees, Poisson or
// diurnal arrivals — and drives it against a doramd endpoint (single node
// or cluster coordinator) exactly on schedule: send times come from the
// arrival process, never from response times, so queueing delay under
// overload is measured instead of hidden (no coordinated omission).
//
// Usage:
//
//	doramload -seed 1 -rate 200 -requests 2000                      self-hosted in-process doramd
//	doramload -server http://127.0.0.1:8443 -seed 1 -duration 5s    external node or coordinator
//	doramload -arrivals diurnal -diurnal-period 10s -diurnal-amp 0.6
//	doramload -tenants 4 -keys 32 -zipf 1.1 -scheme d-oram
//	doramload -out report.json -stream-out stream.jsonl -wall
//
// The report's headline SLO numbers are simulated latencies (CPU cycles,
// attributed per pipeline stage via the evtrace breakdown): they are a
// pure function of the workload seed, so same-seed runs emit byte-identical
// reports — the property BENCH_serving.json and the CI load-smoke job pin.
// Wall-clock serving stats (throughput, wall percentiles, queue-depth and
// cache-hit series) are real but machine-dependent; -wall opts them in.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"doram"
	"doram/internal/loadgen"
	"doram/internal/simsvc"
)

func main() {
	var (
		server = flag.String("server", "", "doramd base URL (empty = self-host an in-process service)")

		seed        = flag.Uint64("seed", 1, "workload seed; same seed, same stream, same report")
		rate        = flag.Float64("rate", 100, "mean arrival rate, requests/second")
		requests    = flag.Int("requests", 0, "stop after this many requests (0 = bound by -duration)")
		duration    = flag.Duration("duration", 0, "stop planning arrivals past this offset (0 = bound by -requests)")
		arrivals    = flag.String("arrivals", "poisson", "arrival process: poisson, uniform or diurnal")
		diurnalPer  = flag.Duration("diurnal-period", time.Minute, "diurnal: day/night cycle length")
		diurnalAmp  = flag.Float64("diurnal-amp", 0.6, "diurnal: relative rate swing in [0,1)")
		tenants     = flag.Int("tenants", 3, "number of S-App tenants (distinct ORAM trees)")
		keys        = flag.Int("keys", 16, "per-tenant key-space size")
		zipfS       = flag.Float64("zipf", 1.1, "per-tenant Zipf popularity exponent (0 = uniform)")
		scheme      = flag.String("scheme", string(doram.SchemeDORAM), "simulation scheme for every tenant")
		traceLen    = flag.Uint64("trace-len", 600, "per-core trace length of each simulated job")
		poll        = flag.Duration("poll", 2*time.Millisecond, "job-status polling interval")
		max429      = flag.Int("max-429-retries", 8, "429 resubmissions before a request counts as rejected")
		outPath     = flag.String("out", "", "write the report here (empty = stdout)")
		streamPath  = flag.String("stream-out", "", "also dump the planned request stream as JSON Lines")
		wall        = flag.Bool("wall", false, "include the nondeterministic wall-clock serving section")
		sampleEvery = flag.Duration("sample-interval", 200*time.Millisecond, "with -wall: /varz sampling cadence")

		workers   = flag.Int("workers", 0, "self-host: worker-pool size (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 64, "self-host: job queue depth")
		cacheSize = flag.Int("cache", 256, "self-host: result-cache entries")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *requests <= 0 && *duration <= 0 {
		fatalf("need -requests or -duration to bound the run")
	}

	cfg := loadgen.Config{
		Seed:          *seed,
		Rate:          *rate,
		Arrivals:      *arrivals,
		DiurnalPeriod: *diurnalPer,
		DiurnalAmp:    *diurnalAmp,
		MaxRequests:   *requests,
		Duration:      *duration,
		Tenants:       loadgen.DefaultTenants(*tenants, *keys, *zipfS, doram.Scheme(*scheme), *traceLen),
	}
	reqs, err := loadgen.Plan(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	if *streamPath != "" {
		f, err := os.Create(*streamPath)
		if err != nil {
			fatalf("%v", err)
		}
		if err := loadgen.WriteStream(f, reqs); err != nil {
			fatalf("%v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("%v", err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	baseURL := *server
	if baseURL == "" {
		url, shutdown, err := selfHost(*workers, *queue, *cacheSize)
		if err != nil {
			fatalf("%v", err)
		}
		defer shutdown()
		baseURL = url
		fmt.Fprintf(os.Stderr, "doramload: self-hosting doramd at %s\n", baseURL)
	}

	var samples []loadgen.VarzSample
	stopSampling := func() {}
	if *wall {
		stopSampling = startSampler(baseURL, *sampleEvery, &samples)
	}

	fmt.Fprintf(os.Stderr, "doramload: %d requests planned (seed %d, %s arrivals at %.0f rps, %d tenants)\n",
		len(reqs), *seed, cfg.Arrivals, *rate, *tenants)
	start := time.Now()
	outcomes, runErr := loadgen.Run(ctx, loadgen.RunConfig{
		BaseURL:       baseURL,
		PollInterval:  *poll,
		Max429Retries: *max429,
	}, reqs)
	elapsed := time.Since(start)
	stopSampling()
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "doramload: run interrupted: %v\n", runErr)
	}

	var serving *loadgen.ServingStats
	if *wall {
		serving = loadgen.BuildServing(outcomes, samples, elapsed)
	}
	report := loadgen.BuildReport(cfg, reqs, outcomes, serving)
	data, err := report.MarshalCanonical()
	if err != nil {
		fatalf("%v", err)
	}
	if *outPath == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		fatalf("%v", err)
	}

	rc := report.Requests
	fmt.Fprintf(os.Stderr, "doramload: %d/%d completed (%d failed, %d rejected, %d errors) in %v\n",
		rc.Completed, rc.Planned, rc.Failed, rc.Rejected, rc.Errors, elapsed.Round(time.Millisecond))
	if rc.Completed == 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "doramload: "+format+"\n", args...)
	os.Exit(2)
}

// selfHost spins up an in-process doramd on a loopback port, so doramload
// doubles as a one-command benchmark with no fleet to stand up.
func selfHost(workers, queue, cache int) (url string, shutdown func(), err error) {
	svc := simsvc.New(simsvc.Config{
		Workers:      workers,
		QueueDepth:   queue,
		CacheEntries: cache,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("self-host listen: %w", err)
	}
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	shutdown = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		svc.Close(ctx)
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

// startSampler polls the endpoint's /varz on a fixed cadence, recording
// the queue-depth / cache-hit / running series for the serving section.
// The names are the simsvc registry's. A coordinator is a simsvc service
// too, so against one they describe its own queue, result cache and
// in-flight dispatches; its merged /varz keeps them under "cluster",
// beside the per-worker counters.
func startSampler(baseURL string, every time.Duration, out *[]loadgen.VarzSample) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		start := time.Now()
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
			}
			resp, err := http.Get(baseURL + "/varz")
			if err != nil {
				continue
			}
			var d struct {
				Counters map[string]uint64 `json:"counters"` // a doramd's dump
				Cluster  map[string]uint64 `json:"cluster"`  // a coordinator's
			}
			err = json.NewDecoder(resp.Body).Decode(&d)
			resp.Body.Close()
			if err != nil {
				continue
			}
			if d.Counters == nil {
				d.Counters = d.Cluster
			}
			*out = append(*out, loadgen.VarzSample{
				AtNs:       time.Since(start).Nanoseconds(),
				QueueDepth: d.Counters["simsvc.queue.depth"],
				CacheHits:  d.Counters["simsvc.cache.hits"],
				Running:    d.Counters["simsvc.jobs.running"],
			})
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
