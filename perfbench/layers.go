package main

// Per-layer metrics a workload does not load. A traced run reports them as
// 0, meaning "this workload does no work in that layer".
var (
	simLayer = []string{
		"core.newsystem_ms", "core.run_ms", "core.ns_per_sim_cycle",
		"mc.row_hit_ratio", "mc.read_rejects", "dram.commands", "bob.rejected",
		"delegator.dummy_ratio", "delegator.engine_queue_full",
		"sim.oram.total_cycles", "sim.oram.sd_wait_cycles", "sim.oram.read_phase_cycles",
		"sim.oram.writeback_cycles", "sim.ns_read.total_cycles", "sim.ns_read.mc_queue_cycles",
		"sim.ns_read.dram_cycles",
	}
	componentLayer = []string{
		"mc.tick_ns", "mc.tick_allocs", "dram.issue_ns", "bob.tick_ns",
		"delegator.sd_access_ns", "cpu.tick_ns", "oram.sampler_access_ns",
	}
	serveLayer = []string{
		"http.submit_ms_p50", "http.submit_ms_p99", "http.result_ms_p50", "http.result_kb_mean",
		"cluster.cache_hit_ratio", "cluster.completion_lag_ms_p50", "cluster.completion_lag_ms_p99",
		"cluster.redispatched", "cluster.hedged",
		"simsvc.queue_wait_ms_p99", "simsvc.run_ms_p50", "simsvc.run_ms_p99", "simsvc.coalesced",
		"loadgen.p50_ms", "loadgen.p90_ms", "loadgen.p99_ms", "loadgen.lateness_ms_p99", "loadgen.backlog_end", "loadgen.max_rps",
	}
	oramClientLayer = []string{
		"backend.storage_read_ns", "backend.storage_write_ns", "backend.seal_ns", "backend.open_ns",
		"backend.evict_plan_ns", "backend.posmap_ns", "backend.buckets_per_access", "oram.stash_max", "oram.p99_us",
	}
)

// bypass reports every metric of the given layers as 0.
func bypass(r *report, layers ...[]string) {
	for _, names := range layers {
		for _, n := range names {
			r.metrics[n] = 0
		}
	}
}
