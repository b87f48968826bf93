package core

import (
	"testing"

	"doram/internal/stats"
)

// runCfg builds and runs a config, failing the test on error.
func runCfg(t *testing.T, cfg Config) *Results {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// quick returns a small-but-meaningful config for integration tests.
func quick(scheme Scheme, bench string) Config {
	cfg := DefaultConfig(scheme, bench)
	cfg.TraceLen = 3000
	return cfg
}

func TestSoloRunCompletes(t *testing.T) {
	cfg := quick(NonSecure, "libq")
	cfg.NumNS = 1
	cfg.HasSApp = false
	res := runCfg(t, cfg)
	if len(res.NSFinish) != 1 || res.NSFinish[0] == 0 {
		t.Fatalf("solo run: finish = %v", res.NSFinish)
	}
	if res.NSReadLat.Count() == 0 {
		t.Fatal("no read latencies recorded")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := quick(NonSecure, "comm2")
	cfg.NumNS = 2
	cfg.HasSApp = false
	a := runCfg(t, cfg)
	b := runCfg(t, cfg)
	if a.Cycles != b.Cycles || a.AvgNSFinish() != b.AvgNSFinish() {
		t.Fatalf("identical configs diverged: %d vs %d cycles", a.Cycles, b.Cycles)
	}
	// Co-runners do not run in lockstep: their finish cycles differ.
	if a.NSFinish[0] == a.NSFinish[1] {
		t.Fatalf("both NS cores finished at cycle %d; co-runners ran in lockstep", a.NSFinish[0])
	}
	// Each core draws its own trace stream. Contention alone separates
	// finish cycles, but identical streams retire identical instruction
	// counts.
	if a.NSInstrs[0] == a.NSInstrs[1] {
		t.Fatalf("both NS cores retired %d instructions; their trace streams are not decorrelated", a.NSInstrs[0])
	}
}

func TestCoRunSlowerThanSolo(t *testing.T) {
	solo := quick(NonSecure, "face")
	solo.NumNS = 1
	solo.HasSApp = false
	rSolo := runCfg(t, solo)

	corun := quick(NonSecure, "face")
	corun.NumNS = 7
	corun.HasSApp = false
	rCorun := runCfg(t, corun)

	if s := rCorun.Slowdown(rSolo); s <= 1.0 {
		t.Fatalf("7-way co-run slowdown %.2f; contention missing", s)
	}
}

func TestChannelPartitionOrdering(t *testing.T) {
	// 7NS on 3 channels must be slower than 7NS on 4 channels (Fig. 4).
	on4 := quick(NonSecure, "face")
	on4.NumNS = 7
	on4.HasSApp = false
	r4 := runCfg(t, on4)

	on3 := on4
	on3.NSChannels = []int{1, 2, 3}
	r3 := runCfg(t, on3)

	if r3.AvgNSFinish() <= r4.AvgNSFinish() {
		t.Fatalf("3-channel partition (%.0f) not slower than 4-channel (%.0f)",
			r3.AvgNSFinish(), r4.AvgNSFinish())
	}
}

func TestPathORAMBaselineDevastatesNSApps(t *testing.T) {
	// The paper's headline motivation: a Path ORAM S-App roughly doubles
	// NS execution time on average (Fig. 4: avg 1.906x, worst 5.26x).
	solo := quick(NonSecure, "face")
	solo.NumNS = 1
	solo.HasSApp = false
	rSolo := runCfg(t, solo)

	base := quick(PathORAMBaseline, "face")
	rBase := runCfg(t, base)

	noS := quick(NonSecure, "face")
	noS.NumNS = 7
	noS.HasSApp = false
	rNoS := runCfg(t, noS)

	sBase := rBase.Slowdown(rSolo)
	sNoS := rNoS.Slowdown(rSolo)
	if sBase <= sNoS*1.1 {
		t.Fatalf("Path ORAM co-run slowdown %.2f barely above plain co-run %.2f", sBase, sNoS)
	}
	t.Logf("slowdowns: plain 7NS co-run %.2fx, with Path ORAM S-App %.2fx", sNoS, sBase)
}

func TestDORAMBeatsPathORAMBaseline(t *testing.T) {
	// The headline result (Fig. 9): D-ORAM reduces NS execution time
	// versus the Path ORAM baseline.
	base := quick(PathORAMBaseline, "face")
	rBase := runCfg(t, base)

	dor := quick(DORAM, "face")
	rDor := runCfg(t, dor)

	ratio := rDor.AvgNSFinish() / rBase.AvgNSFinish()
	if ratio >= 1.0 {
		t.Fatalf("D-ORAM/Baseline execution ratio %.3f, want < 1", ratio)
	}
	t.Logf("D-ORAM normalized execution time: %.3f (paper: 0.875)", ratio)
}

func TestDORAMSAppStreamsORAM(t *testing.T) {
	cfg := quick(DORAM, "mummer")
	cfg.MetricsEpochCycles = DefaultMetricsEpochCycles
	res := runCfg(t, cfg)
	if res.SApp == nil || res.SApp.Accesses.Value() == 0 {
		t.Fatal("SD executed no ORAM accesses")
	}
	if res.Metrics.Counters["sapp0.engine.real_sent"] == 0 {
		t.Fatal("secure engine sent no real requests")
	}
	// The secure channel must be the busiest (ORAM's 168 blocks/access).
	if res.ChannelDataBusBusy[0] <= res.ChannelDataBusBusy[1] {
		t.Fatalf("secure channel bus busy %d not above normal channel %d",
			res.ChannelDataBusBusy[0], res.ChannelDataBusBusy[1])
	}
}

func TestDORAMSharingControl(t *testing.T) {
	// c=0 must keep NS traffic off the secure channel entirely.
	cfg := quick(DORAM, "black")
	cfg.SecureSharers = 0
	res := runCfg(t, cfg)
	if res.ReadLatPerChannel[0].Count() != 0 {
		t.Fatalf("%d NS reads on the secure channel with c=0", res.ReadLatPerChannel[0].Count())
	}
	// c=7 routes some NS traffic there.
	cfg.SecureSharers = AllNS
	res = runCfg(t, cfg)
	if res.ReadLatPerChannel[0].Count() == 0 {
		t.Fatal("no NS reads on the secure channel with c=all")
	}
}

func TestDORAMSplitCostsLittle(t *testing.T) {
	// Fig. 10: +k adds only a few percent to NS execution time.
	r0 := runCfg(t, quick(DORAM, "stream"))
	cfgK := quick(DORAM, "stream")
	cfgK.SplitK = 1
	rK := runCfg(t, cfgK)
	overhead := rK.AvgNSFinish()/r0.AvgNSFinish() - 1
	if overhead < -0.05 || overhead > 0.25 {
		t.Fatalf("split k=1 overhead %.1f%%, want small positive", overhead*100)
	}
	if rK.SApp.RemoteBlocks.Value() == 0 {
		t.Fatal("split run moved no blocks to normal channels")
	}
	t.Logf("split k=1 NS overhead: %.2f%% (paper: 1.02%%)", overhead*100)
}

func TestSecureMemoryScheme(t *testing.T) {
	res := runCfg(t, quick(SecureMemory, "comm1"))
	if len(res.NSFinish) != 7 {
		t.Fatalf("NS count = %d", len(res.NSFinish))
	}
	if res.SAppFinish == 0 {
		t.Log("S-App still running when NS-Apps finished (expected under load)")
	}
}

// TestDirectInstantCompletionLatency runs secure memory with four NS-Apps
// on two direct channels (doramsim -scheme secure-memory -bench face
// -trace 3000 -channels 1,2 -ns 4). Writes there coalesce in the
// controller's write queue and complete at their enqueue's memory edge,
// which can fall before the issuing CPU cycle. Such a completion records 0
// cycles, not a wrapped-around latency.
func TestDirectInstantCompletionLatency(t *testing.T) {
	cfg := quick(SecureMemory, "face")
	cfg.NSChannels = []int{1, 2}
	cfg.NumNS = 4
	res := runCfg(t, cfg)
	for name, lat := range map[string]*stats.Latency{"read": &res.NSReadLat, "write": &res.NSWriteLat} {
		if lat.Count() == 0 {
			t.Fatalf("no NS %ss recorded", name)
		}
		if lat.Max() > res.Cycles {
			t.Errorf("NS %s latency max %d cycles exceeds the %d-cycle run", name, lat.Max(), res.Cycles)
		}
	}
	if res.NSWriteLat.Min() != 0 {
		t.Errorf("NS write latency min %d, want 0: no instant completion was recorded", res.NSWriteLat.Min())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Scheme: NonSecure, Benchmark: "nosuch", NumNS: 1, TraceLen: 1, Pace: 1, CoopThreshold: 0.5},
		func() Config { c := DefaultConfig(DORAM, "libq"); c.SplitK = 4; return c }(),
		func() Config { c := DefaultConfig(PathORAMBaseline, "libq"); c.SplitK = 1; return c }(),
		func() Config { c := DefaultConfig(NonSecure, "libq"); c.HasSApp = true; return c }(),
		func() Config { c := DefaultConfig(DORAM, "libq"); c.HasSApp = false; return c }(),
		func() Config { c := DefaultConfig(DORAM, "libq"); c.TraceLen = 0; return c }(),
		func() Config { c := DefaultConfig(DORAM, "libq"); c.NSChannels = []int{4}; return c }(),
	}
	for i, cfg := range bad {
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestNSChannelAssignment(t *testing.T) {
	cfg := DefaultConfig(DORAM, "libq")
	cfg.SecureSharers = 3
	for i := 0; i < 3; i++ {
		if got := cfg.nsChannelsFor(i); len(got) != 4 {
			t.Fatalf("sharer %d channels = %v, want all 4", i, got)
		}
	}
	for i := 3; i < 7; i++ {
		got := cfg.nsChannelsFor(i)
		if len(got) != 3 || got[0] != 1 {
			t.Fatalf("non-sharer %d channels = %v, want {1,2,3}", i, got)
		}
	}
}

func TestRouteLocality(t *testing.T) {
	// Sequential lines alternate channels and stay dense per channel.
	chans := []int{1, 2, 3}
	seen := map[int]uint64{}
	for i := uint64(0); i < 9; i++ {
		ch, local := route(i*64, chans)
		if prev, ok := seen[ch]; ok && local != prev+64 {
			t.Fatalf("channel %d local addresses not dense: %d then %d", ch, prev, local)
		}
		seen[ch] = local
	}
	if len(seen) != 3 {
		t.Fatalf("9 lines spread over %d channels, want 3", len(seen))
	}
}

func TestMultipleSApps(t *testing.T) {
	// §III-C motivates the tree split with multiple S-Apps pressuring the
	// secure channel: two delegated ORAM streams must both make progress
	// and hurt NS-Apps more than one does.
	one := quick(DORAM, "comm1")
	rOne := runCfg(t, one)

	two := quick(DORAM, "comm1")
	two.NumS = 2
	two.NumNS = 6 // keep 8 cores total
	rTwo := runCfg(t, two)

	if len(rTwo.SAppAll) != 2 {
		t.Fatalf("SAppAll has %d entries, want 2", len(rTwo.SAppAll))
	}
	for i, st := range rTwo.SAppAll {
		if st.Accesses.Value() == 0 {
			t.Fatalf("S-App %d executed no ORAM accesses", i)
		}
	}
	// Two ORAM streams on one secure channel throttle each other: per-app
	// access counts drop versus the single-S-App run over similar time.
	onePerCycle := float64(rOne.SApp.Accesses.Value()) / float64(rOne.Cycles)
	twoPerCycle := float64(rTwo.SAppAll[0].Accesses.Value()) / float64(rTwo.Cycles)
	if twoPerCycle >= onePerCycle {
		t.Errorf("per-S-App ORAM rate did not drop under sharing: %.2e vs %.2e",
			twoPerCycle, onePerCycle)
	}
}

func TestMultiSAppValidation(t *testing.T) {
	cfg := DefaultConfig(DORAM, "libq")
	cfg.NumS = 5
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("NumS=5 accepted")
	}
	cfg = DefaultConfig(NonSecure, "libq")
	cfg.HasSApp = false
	cfg.NumS = 1
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("NumS without HasSApp accepted")
	}
}

func TestForkPathReducesORAMTraffic(t *testing.T) {
	base := quick(DORAM, "libq")
	rBase := runCfg(t, base)

	fp := quick(DORAM, "libq")
	fp.ForkPath = true
	rFP := runCfg(t, fp)

	// With the tree top cached, consecutive paths rarely share deeper
	// levels, but over many accesses some savings must accrue: the fork
	// path run completes at least as many ORAM accesses per cycle.
	baseRate := float64(rBase.SApp.Accesses.Value()) / float64(rBase.Cycles)
	fpRate := float64(rFP.SApp.Accesses.Value()) / float64(rFP.Cycles)
	if fpRate < baseRate*0.95 {
		t.Errorf("fork path rate %.3e below baseline %.3e", fpRate, baseRate)
	}
}

func TestEnergyAccountingInResults(t *testing.T) {
	res := runCfg(t, quick(DORAM, "libq"))
	if res.TotalEnergyUJ() <= 0 {
		t.Fatal("no energy accounted")
	}
	// The secure channel runs the ORAM storm over 4 sub-channels: it must
	// dominate the energy budget.
	if res.ChannelEnergyUJ[0] <= res.ChannelEnergyUJ[1] {
		t.Fatalf("secure channel energy %.1f uJ not above normal channel %.1f uJ",
			res.ChannelEnergyUJ[0], res.ChannelEnergyUJ[1])
	}
}

func TestReadLatencyHistogram(t *testing.T) {
	res := runCfg(t, quick(DORAM, "face"))
	if res.NSReadHist == nil {
		t.Fatal("histogram missing")
	}
	lat := res.NSReadHist.Latency()
	if lat.Count() != res.NSReadLat.Count() {
		t.Fatalf("histogram samples %d != latency samples %d",
			lat.Count(), res.NSReadLat.Count())
	}
	p50 := res.NSReadHist.Percentile(50)
	p99 := res.NSReadHist.Percentile(99)
	if p99 < p50 {
		t.Fatalf("p99 (%d) below p50 (%d)", p99, p50)
	}
}

func TestDeterminismAcrossAllSchemes(t *testing.T) {
	// Bit-exact reproducibility is a core requirement: same config, same
	// results, for every scheme.
	cfgs := []Config{
		func() Config { c := quick(NonSecure, "comm3"); c.HasSApp = false; return c }(),
		quick(PathORAMBaseline, "comm3"),
		quick(SecureMemory, "comm3"),
		quick(DORAM, "comm3"),
		func() Config { c := quick(DORAM, "comm3"); c.SplitK = 1; c.SecureSharers = 3; return c }(),
	}
	for _, cfg := range cfgs {
		a := runCfg(t, cfg)
		b := runCfg(t, cfg)
		if a.Cycles != b.Cycles {
			t.Errorf("%v: cycles %d vs %d", cfg.Scheme, a.Cycles, b.Cycles)
		}
		if a.NSReadLat.Sum() != b.NSReadLat.Sum() || a.NSReadLat.Count() != b.NSReadLat.Count() {
			t.Errorf("%v: read latency streams diverged", cfg.Scheme)
		}
		for i := range a.NSFinish {
			if a.NSFinish[i] != b.NSFinish[i] {
				t.Errorf("%v: core %d finish %d vs %d", cfg.Scheme, i, a.NSFinish[i], b.NSFinish[i])
			}
		}
	}
}

func TestSeedChangesResults(t *testing.T) {
	a := quick(DORAM, "comm3")
	b := a
	b.Seed = a.Seed + 1
	ra, rb := runCfg(t, a), runCfg(t, b)
	if ra.Cycles == rb.Cycles && ra.AvgNSFinish() == rb.AvgNSFinish() {
		t.Fatal("different seeds produced identical results; randomness not threaded")
	}
}

func TestDDR4FasterThanDDR3(t *testing.T) {
	d3 := quick(DORAM, "face")
	r3 := runCfg(t, d3)
	d4 := d3
	d4.DDR4 = true
	r4 := runCfg(t, d4)
	if r4.AvgNSFinish() > r3.AvgNSFinish()*1.02 {
		t.Fatalf("DDR4 run (%.0f) slower than DDR3 (%.0f)", r4.AvgNSFinish(), r3.AvgNSFinish())
	}
}

func TestOverlapPhasesEndToEnd(t *testing.T) {
	base := quick(DORAM, "libq")
	rBase := runCfg(t, base)
	ov := base
	ov.OverlapPhases = true
	rOv := runCfg(t, ov)
	// In isolation overlap raises ORAM throughput (see the delegator
	// tests); under co-run it also keeps secure reads perpetually pending,
	// which suppresses the controller's write-phase priority, so the net
	// co-run effect is workload-dependent. Require same-magnitude rates.
	baseRate := float64(rBase.SApp.Accesses.Value()) / float64(rBase.Cycles)
	ovRate := float64(rOv.SApp.Accesses.Value()) / float64(rOv.Cycles)
	if ovRate < baseRate*0.85 || ovRate > baseRate*1.30 {
		t.Fatalf("overlap ORAM rate %.3e far from buffered %.3e", ovRate, baseRate)
	}
}

func TestIPCAndRowHitRateReported(t *testing.T) {
	res := runCfg(t, quick(DORAM, "libq"))
	if ipc := res.AvgNSIPC(); ipc <= 0 || ipc > 4 {
		t.Fatalf("IPC = %.2f outside (0, 4]", ipc)
	}
	for ch := 0; ch < NumChannels; ch++ {
		r := res.ChannelRowHitRate[ch]
		if r <= 0 || r > 1 {
			t.Fatalf("channel %d row hit rate %.2f outside (0,1]", ch, r)
		}
	}
	// libq streams: row hit rates should be healthy.
	if res.ChannelRowHitRate[1] < 0.3 {
		t.Fatalf("normal channel hit rate %.2f implausibly low for a streaming workload",
			res.ChannelRowHitRate[1])
	}
}

func TestLatencyWarmupCuts(t *testing.T) {
	cfg := quick(NonSecure, "libq")
	cfg.NumNS = 1
	cfg.HasSApp = false
	full := runCfg(t, cfg)
	cfg.LatencyWarmup = 500
	cut := runCfg(t, cfg)
	if cut.NSReadLat.Count() >= full.NSReadLat.Count() {
		t.Fatalf("warmup did not reduce samples: %d vs %d",
			cut.NSReadLat.Count(), full.NSReadLat.Count())
	}
	if full.NSReadLat.Count()-cut.NSReadLat.Count() != 500 {
		t.Fatalf("warmup cut %d samples, want 500",
			full.NSReadLat.Count()-cut.NSReadLat.Count())
	}
	// Execution time is unaffected by the statistics cut.
	if cut.Cycles != full.Cycles {
		t.Fatalf("warmup changed execution: %d vs %d cycles", cut.Cycles, full.Cycles)
	}
}

func TestMaxCyclesExceededSurfaces(t *testing.T) {
	cfg := quick(DORAM, "face")
	cfg.MaxCycles = 1000 // far too short to finish
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err == nil {
		t.Fatal("run exceeding MaxCycles returned no error")
	}
}

// TestFastForwardVisitGuard bounds the cycles the fast-forward loop visits
// on the doramsim default (D-ORAM, face, 8000 accesses per core, seed 1):
// 662,707 simulated cycles, of which the loop visits 180,733. The count is
// deterministic, so a change that wakes cores or engines needlessly fails
// here rather than only in a benchmark.
func TestFastForwardVisitGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full doramsim default")
	}
	cfg := DefaultConfig(DORAM, "face")
	cfg.TraceLen = 8000
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d cycles, %d visited", res.Cycles, sys.visits)
	if sys.visits > 200_000 {
		t.Fatalf("fast-forward loop visited %d of %d cycles, want at most 200,000", sys.visits, res.Cycles)
	}
}

// TestMemoryTickGuard bounds the memory domain's work on the doramsim
// default (D-ORAM, face, 8000 accesses per core, seed 1): 325,618 channel
// ticks by the fast-forward loop, and 303,971 full controller ticks
// (ticks outside a quiet window, refresh holds included). Waking every
// channel on any core's access made 350,385 channel ticks; running a full
// tick on every visit to an idle controller as well made 347,269 full
// ones. Both counts are deterministic, so a change that wakes channels or
// controllers needlessly fails here rather than only in a benchmark.
func TestMemoryTickGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full doramsim default")
	}
	cfg := DefaultConfig(DORAM, "face")
	cfg.TraceLen = 8000
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	var full uint64
	for _, c := range sys.controllers() {
		full += c.FullTicks()
	}
	t.Logf("%d channel ticks, %d full controller ticks", sys.chanTicks, full)
	if sys.chanTicks > 335_000 {
		t.Errorf("fast-forward loop ticked channels %d times, want at most 335,000", sys.chanTicks)
	}
	if full > 320_000 {
		t.Errorf("memory controllers ran %d full ticks, want at most 320,000", full)
	}
}
