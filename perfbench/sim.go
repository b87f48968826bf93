package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"doram/internal/core"
	"doram/internal/evtrace"
	"doram/internal/metrics"
	"doram/internal/stats"
)

// runPool runs the configs on GOMAXPROCS goroutines, the way the
// experiments runner does, and returns the results in order.
func runPool(cfgs []core.Config) ([]*core.Results, error) {
	results := make([]*core.Results, len(cfgs))
	errs := make([]error, len(cfgs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = simulate(cfgs[i])
			}
		}()
	}
	for i := range cfgs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("config %d (%s/%s): %w", i, cfgs[i].Scheme, cfgs[i].Benchmark, err)
		}
	}
	return results, nil
}

func simulate(cfg core.Config) (*core.Results, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return sys.Run()
}

// resultsDigest hashes everything a run reports about the simulated
// machine, so any change to the model's output changes the digest.
func resultsDigest(res *core.Results) string {
	h := sha256.New()
	lat := func(name string, l stats.Latency) {
		fmt.Fprintf(h, "%s %d %d %d %d\n", name, l.Count(), l.Sum(), l.Min(), l.Max())
	}
	fmt.Fprintf(h, "cycles %d finish %v instrs %v sapp_finish %d\n", res.Cycles, res.NSFinish, res.NSInstrs, res.SAppFinish)
	lat("ns_read", res.NSReadLat)
	lat("ns_write", res.NSWriteLat)
	for ch := range res.ReadLatPerChannel {
		lat(fmt.Sprintf("read%d", ch), res.ReadLatPerChannel[ch])
		lat(fmt.Sprintf("write%d", ch), res.WriteLatPerChannel[ch])
	}
	fmt.Fprintf(h, "busy %v energy %v rowhit %v\n", res.ChannelDataBusBusy, res.ChannelEnergyUJ, res.ChannelRowHitRate)
	if s := res.SApp; s != nil {
		fmt.Fprintf(h, "oram %d %d %d %d\n", s.Accesses.Value(), s.RealAccesses.Value(), s.DummyAccesses.Value(), s.RemoteBlocks.Value())
		lat("read_phase", s.ReadPhase)
		lat("write_phase", s.WritePhase)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// timeCore fills core.*: one untraced NewSystem and Run of cfg, timed from
// outside, with the host time per simulated CPU cycle.
func timeCore(r *report, cfg core.Config) error {
	t0 := time.Now()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return err
	}
	t1 := time.Now()
	res, err := sys.Run()
	if err != nil {
		return err
	}
	run := time.Since(t1)
	r.metrics["core.newsystem_ms"] = ms(t1.Sub(t0))
	r.metrics["core.run_ms"] = ms(run)
	r.metrics["core.ns_per_sim_cycle"] = float64(run.Nanoseconds()) / float64(res.Cycles)
	return nil
}

// withObservability turns on the simulator's metric registry and event
// tracing. Tracing disables the parallel memory engine and metric epochs
// bound fast-forward jumps, so runs with it on are only used for the
// simulated counts and stage attribution, never for host-time shares.
func withObservability(cfg core.Config) core.Config {
	cfg.MetricsEpochCycles = core.DefaultMetricsEpochCycles
	cfg.TraceEvents = true
	return cfg
}

// fillSimModel fills the simulated counts and the evtrace stage means from
// a run made with metrics and tracing on. These are model outputs: a change
// that only speeds the simulator up must leave every one of them equal.
func fillSimModel(r *report, dump *metrics.Dump, attribution *evtrace.Report) error {
	if dump == nil || attribution == nil {
		return fmt.Errorf("simulated counts need a run with metrics and tracing on")
	}
	sum := func(suffix string) float64 {
		var n uint64
		for name, v := range dump.Counters {
			if strings.HasSuffix(name, suffix) {
				n += v
			}
		}
		return float64(n)
	}
	hits, misses := sum(".mc.row_hits"), sum(".mc.row_misses")
	if hits+misses > 0 {
		r.metrics["mc.row_hit_ratio"] = hits / (hits + misses)
	} else {
		r.metrics["mc.row_hit_ratio"] = 0
	}
	r.metrics["mc.read_rejects"] = sum(".mc.read_rejects")
	r.metrics["dram.commands"] = sum(".dram.activates") + sum(".dram.precharges") +
		sum(".dram.reads") + sum(".dram.writes") + sum(".dram.refreshes")
	r.metrics["bob.rejected"] = sum(".bob.rejected")
	r.metrics["delegator.dummy_ratio"] = 0
	if acc := counter(dump, "sapp0.accesses"); acc > 0 {
		r.metrics["delegator.dummy_ratio"] = counter(dump, "sapp0.dummy_accesses") / acc
	}
	r.metrics["delegator.engine_queue_full"] = counter(dump, "sapp0.engine.queue_full")

	stage := func(kind, name string) float64 {
		for _, kb := range attribution.Kinds {
			if kb.Kind != kind {
				continue
			}
			if name == "total" {
				return kb.Total.Mean
			}
			for _, s := range kb.Stages {
				if s.Stage == name {
					return s.Mean
				}
			}
		}
		return 0
	}
	r.metrics["sim.oram.total_cycles"] = stage(evtrace.KindOram, "total")
	r.metrics["sim.oram.sd_wait_cycles"] = stage(evtrace.KindOram, "sd_wait")
	r.metrics["sim.oram.read_phase_cycles"] = stage(evtrace.KindOram, "read_phase")
	r.metrics["sim.oram.writeback_cycles"] = stage(evtrace.KindOram, "writeback")
	r.metrics["sim.ns_read.total_cycles"] = stage(evtrace.KindNSRead, "total")
	r.metrics["sim.ns_read.mc_queue_cycles"] = stage(evtrace.KindNSRead, "mc_queue")
	r.metrics["sim.ns_read.dram_cycles"] = stage(evtrace.KindNSRead, "dram")
	return nil
}

func counter(d *metrics.Dump, name string) float64 { return float64(d.Counters[name]) }
