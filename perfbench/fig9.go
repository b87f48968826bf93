package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"doram"
	"doram/internal/core"
)

// fig9-sweep regenerates Figure 9 at reduced scale through the public
// experiments entry point: per benchmark the Path ORAM baseline, D-ORAM at
// c = 0..7, D-ORAM+1 and D-ORAM+1/4.
//
// The sweep runs on one processor (GOMAXPROCS 1), so the runner simulates
// one run at a time and the parallel memory engine stays off. On a 2-vCPU
// VM that is as fast as the default of two: there two runs each hand their
// memory units to engine workers on the same two processors. But with one
// vCPU kept busy by another process, two processors made the sweep 1.6x
// slower and one processor 1.1x, so at the default the sweep's time
// measured the host's other tenants more than the simulator.

// face is left out: its c = 0 and c = 1 runs take about six times longer
// on some seeds (3 and 5 of 1-8), which makes sweep time bimodal in the
// seed.
var fig9Benches = []string{"black", "libq"}

const fig9TraceLen = 1000

// fig9Pinned maps a seed to the SHA-256 of the Figure 9 CSV it must
// produce. Other seeds are checked by the in-run oracle alone.
var fig9Pinned = map[uint64]string{
	1: "258d9a3f8307e0f0741e63b63186ac03a9eef3d30556d9f0b45134ae8cabf55e",
}

func fig9Options(seed uint64) doram.ExperimentOptions {
	return doram.ExperimentOptions{TraceLen: fig9TraceLen, Seed: seed, Benchmarks: fig9Benches}
}

// fig9Configs lists the sweep's runs in the experiments runner's order,
// built independently of it from the paper's configuration rules.
func fig9Configs(seed uint64) []core.Config {
	if seed == 0 {
		seed = 42 // the experiments default a zero seed resolves to
	}
	apply := func(cfg core.Config) core.Config {
		cfg.TraceLen = fig9TraceLen
		cfg.Seed = seed
		cfg.LatencyWarmup = fig9TraceLen / 20
		return cfg
	}
	dcfg := func(b string, k, c int) core.Config {
		cfg := core.DefaultConfig(core.DORAM, b)
		cfg.SplitK, cfg.SecureSharers = k, c
		return apply(cfg)
	}
	var cfgs []core.Config
	for _, b := range fig9Benches {
		cfgs = append(cfgs, apply(core.DefaultConfig(core.PathORAMBaseline, b)))
		for c := 0; c <= 7; c++ {
			cfgs = append(cfgs, dcfg(b, 0, c))
		}
		cfgs = append(cfgs, dcfg(b, 1, core.AllNS), dcfg(b, 1, 4))
	}
	return cfgs
}

// fig9SetUp builds, without running, every system the sweep simulates.
func fig9SetUp(cfgs []core.Config) (time.Duration, error) {
	t0 := time.Now()
	for _, cfg := range cfgs {
		if _, err := core.NewSystem(cfg); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

func measureFig9(e env) (*report, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one processor, restored on return
	r := newReport()
	cfgs := fig9Configs(e.seed)
	var setups []time.Duration
	var lat []float64
	var alloc uint64 // bytes allocated by the sweeps
	var first string
	start := time.Now()
	for len(lat) < 2 || time.Since(start) < e.seconds {
		// Set-up is sampled between the sweeps, so its median is taken
		// under the same host conditions as the sweeps.
		for i := 0; i < 5; i++ {
			d, err := fig9SetUp(cfgs)
			if err != nil {
				return nil, err
			}
			setups = append(setups, d)
		}
		a0 := allocBytes()
		t0 := time.Now()
		csv, err := doram.RunExperimentCSV("fig9", fig9Options(e.seed))
		lat = append(lat, ms(time.Since(t0)))
		alloc += allocBytes() - a0
		r.attempted++
		switch {
		case err != nil:
			r.failed++
			r.fail("sweep %d: %v", len(lat), err)
		case first == "":
			first = csv
		case csv != first:
			r.failed++
			r.fail("sweep %d produced a different table than sweep 1", len(lat))
		}
	}

	// Oracle: rebuild the table from the runs themselves, simulated outside
	// the experiments runner, and compare it with the sweep's CSV.
	results, err := runPool(cfgs)
	if err != nil {
		return nil, err
	}
	var cycles uint64
	for _, res := range results {
		cycles += res.Cycles
	}
	checkFig9(r, e.seed, first, results)

	fillEndToEnd(r, setups, lat, alloc, r.attempted)
	// Simulated Mcycles per host second at the median sweep.
	r.metrics["throughput_per_s"] = float64(cycles) / 1e3 / median(lat)
	return r, nil
}

// checkFig9 compares the sweep's CSV with a table computed from the runs'
// results, and with the pinned digest for this seed when there is one.
// Every sweep of the run gave that CSV, so a mismatch fails all of them.
func checkFig9(r *report, seed uint64, csv string, results []*core.Results) {
	if want, ok := fig9Pinned[seed]; ok && digest(csv) != want {
		r.failOps(r.attempted, "Figure 9 CSV digest %s, pinned %s", digest(csv), want)
	}
	if exp := fig9Table(results); csv != exp {
		r.failOps(r.attempted, "Figure 9 CSV differs from the table rebuilt from its runs:\n%s\nwant:\n%s", csv, exp)
	}
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// fig9Table formats Figure 9 from the sweep's raw results: NS execution
// time normalized to the baseline, best c, and geometric means.
func fig9Table(results []*core.Results) string {
	const perBench = 11
	f3 := func(v float64) string { return fmt.Sprintf("%.3f", v) }
	var b strings.Builder
	b.WriteString("bench,D-ORAM,D-ORAM/X,bestC,D-ORAM+1,D-ORAM+1/4\n")
	var logs [4]float64
	for i, bench := range fig9Benches {
		res := results[i*perBench : (i+1)*perBench]
		base := res[0].AvgNSFinish()
		best, bestC := 0.0, 0
		for c := 0; c <= 7; c++ {
			if v := res[1+c].AvgNSFinish() / base; c == 0 || v < best {
				best, bestC = v, c
			}
		}
		row := [4]float64{res[8].AvgNSFinish() / base, best, res[9].AvgNSFinish() / base, res[10].AvgNSFinish() / base}
		for j, v := range row {
			logs[j] += math.Log(v)
		}
		fmt.Fprintf(&b, "%s,%s,%s,%d,%s,%s\n", bench, f3(row[0]), f3(row[1]), bestC, f3(row[2]), f3(row[3]))
	}
	n := float64(len(fig9Benches))
	g := func(j int) string { return f3(math.Exp(logs[j] / n)) }
	fmt.Fprintf(&b, "gmean,%s,%s,-,%s,%s\n", g(0), g(1), g(2), g(3))
	return b.String()
}

func traceFig9(e env) (*report, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as measured, restored on return
	r := newReport()
	cfgs := fig9Configs(e.seed)
	opts := fig9Options(e.seed)

	// Untraced sweep: the reference wall time, runner CPU use and GC share.
	start := takeUsage()
	csv, err := doram.RunExperimentCSV("fig9", opts)
	if err != nil {
		return nil, err
	}
	plain := since(start)
	r.attempted++
	r.metrics["experiments.cpu_util"] = plain.cpuUtil()
	r.metrics["go.gc_cpu_pct"] = plain.gcPct()

	// The same sweep under the CPU profiler, tracing and metrics off.
	if err := profile(r, func() error {
		_, err := doram.RunExperimentCSV("fig9", opts)
		return err
	}); err != nil {
		return nil, err
	}
	r.attempted++

	// Every run with the simulator's metrics and event tracing on: the
	// tracing overhead, the oracle, and the model's counts from the plain
	// D-ORAM run of the first benchmark.
	traced := make([]core.Config, len(cfgs))
	for i, cfg := range cfgs {
		traced[i] = withObservability(cfg)
	}
	t0 := time.Now()
	results, err := runPool(traced)
	if err != nil {
		return nil, err
	}
	r.metrics["trace.overhead_ratio"] = time.Since(t0).Seconds() / plain.wall.Seconds()
	r.attempted += int64(len(traced))
	checkFig9(r, e.seed, csv, results)
	if err := fillSimModel(r, results[8].Metrics, &results[8].Trace.Report); err != nil {
		return nil, err
	}
	if err := timeCore(r, cfgs[8]); err != nil {
		return nil, err
	}
	if err := fillComponents(r, ddr3(fig9Benches[0], e.seed)); err != nil {
		return nil, err
	}
	bypass(r, serveLayer, oramClientLayer)
	return r, nil
}
