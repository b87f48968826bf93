package main

import (
	"time"

	"doram/internal/core"
)

// corun-single is one doramsim-default simulation (D-ORAM, face, one
// S-App beside seven NS-Apps, 8000 accesses per core), built with
// core.NewSystem and run with System.Run: the latency of a single job,
// with cores left idle for the parallel memory engine.

// corunPinned maps a seed to the digest of the Results it must produce.
var corunPinned = map[uint64]string{
	1: "3e7cb37ba79602c2a7144d6194017d44e188d62af5e4ad597206cbf33c6cc0ab",
}

func corunConfig(seed uint64) core.Config {
	cfg := core.DefaultConfig(core.DORAM, "face")
	cfg.TraceLen = 8000
	cfg.Seed = seed
	return cfg
}

func measureCorun(e env) (*report, error) {
	r := newReport()
	cfg := corunConfig(e.seed)
	var setups []time.Duration
	var lat []float64
	var cycles uint64 // simulated cycles of one run
	var alloc uint64  // bytes allocated by the measured runs
	var first string
	start := time.Now()
	for len(lat) < 3 || time.Since(start) < e.seconds {
		// Building a system is cheap next to running it: extra builds
		// between the runs give set-up a steady median, taken under the
		// same host conditions as the runs.
		for i := 0; i < 10; i++ {
			t0 := time.Now()
			if _, err := core.NewSystem(cfg); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0))
		}
		r.attempted++
		a0 := allocBytes()
		t0 := time.Now()
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		res, err := sys.Run()
		lat = append(lat, ms(time.Since(t0)))
		alloc += allocBytes() - a0
		if err != nil {
			r.failed++
			r.fail("run %d: %v", len(lat), err)
			continue
		}
		cycles = res.Cycles
		switch d := resultsDigest(res); {
		case first == "":
			first = d
		case d != first:
			r.failed++
			r.fail("run %d results differ from run 1", len(lat))
		}
	}
	checkCorun(r, e.seed, first, cfg)
	fillEndToEnd(r, setups, lat, alloc, r.attempted)
	// Simulated Mcycles per host second at the median run.
	r.metrics["throughput_per_s"] = float64(cycles) / 1e3 / median(lat)
	return r, nil
}

// checkCorun compares a run's results digest with the pinned one for this
// seed, and with the cycle-by-cycle reference loop, which shares the
// components but not the fast-forward scheduler or the parallel engine.
// Every run of the run gave that digest, so a mismatch fails all of them.
func checkCorun(r *report, seed uint64, got string, cfg core.Config) {
	if want, ok := corunPinned[seed]; ok && got != want {
		r.failOps(r.attempted, "results digest %s, pinned %s", got, want)
	}
	ref := cfg
	ref.NoFastForward = true
	res, err := simulate(ref)
	if err != nil {
		r.failOps(r.attempted, "reference run: %v", err)
		return
	}
	if d := resultsDigest(res); d != got {
		r.failOps(r.attempted, "results digest %s, reference loop %s", got, d)
	}
}

func traceCorun(e env) (*report, error) {
	r := newReport()
	cfg := corunConfig(e.seed)

	start := takeUsage()
	if err := timeCore(r, cfg); err != nil {
		return nil, err
	}
	plain := since(start)
	r.attempted++
	r.metrics["experiments.cpu_util"] = plain.cpuUtil()
	r.metrics["go.gc_cpu_pct"] = plain.gcPct()

	if err := profile(r, func() error {
		_, err := simulate(cfg)
		return err
	}); err != nil {
		return nil, err
	}
	r.attempted++

	t0 := time.Now()
	res, err := simulate(withObservability(cfg))
	if err != nil {
		return nil, err
	}
	r.metrics["trace.overhead_ratio"] = time.Since(t0).Seconds() / plain.wall.Seconds()
	r.attempted++
	checkCorun(r, e.seed, resultsDigest(res), cfg)
	if err := fillSimModel(r, res.Metrics, &res.Trace.Report); err != nil {
		return nil, err
	}
	if err := fillComponents(r, ddr3(cfg.Benchmark, e.seed)); err != nil {
		return nil, err
	}
	bypass(r, serveLayer, oramClientLayer)
	return r, nil
}
