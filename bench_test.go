package doram

// One benchmark per table/figure of the paper's evaluation (§V), plus
// micro-benchmarks of the core primitives. The figure benches run the
// corresponding experiment harness at reduced scale; use cmd/experiments
// for full-scale regeneration.

import (
	"testing"

	"doram/internal/addrmap"
	"doram/internal/core"
	"doram/internal/dram"
	"doram/internal/evtrace"
	"doram/internal/experiments"
	"doram/internal/mc"
	"doram/internal/oram"
	"doram/internal/trace"
	"doram/internal/xrand"
)

func benchOpts() experiments.Options {
	o := experiments.QuickOptions()
	o.TraceLen = 1500
	return o
}

// BenchmarkTableI regenerates Table I (analytic; no simulation).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows, _ := experiments.TableI(); len(rows) != 3 {
			b.Fatal("table I incomplete")
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4 (co-run slowdowns).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure4(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8 regenerates Figure 8 (per-channel latency balance).
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure8(benchOpts(), "black"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure9 regenerates Figure 9 (normalized NS execution time).
func BenchmarkFigure9(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure9(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure10 regenerates Figure 10 (tree expansion overhead).
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure10(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure11 regenerates Figure 11 (secure-channel sharing sweep).
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure11(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure12 regenerates Figure 12 (profiling-guided c selection).
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure12(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure13 regenerates Figure 13 (NS access latency reduction).
func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure13(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSAppImpact regenerates the §V-E S-App latency study.
func BenchmarkSAppImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.SAppImpact(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFunctionalORAMAccess measures one functional Path ORAM access
// (read + reshuffle + re-encrypt) at a 16 MB tree.
func BenchmarkFunctionalORAMAccess(b *testing.B) {
	cfg := DefaultORAMConfig()
	cfg.Levels = 14
	o, err := NewORAM(cfg)
	if err != nil {
		b.Fatal(err)
	}
	buf := []byte("payload")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i) % (o.Capacity() / 2)
		if err := o.Write(addr, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRead keeps BenchmarkFunctionalORAMStore's reads observable.
var benchRead []byte

// BenchmarkFunctionalORAMStore measures one functional Path ORAM access at
// the shape of perfbench's oram-store workload: DefaultORAMConfig (L=16,
// ctr-hmac with MACs), 4096 prefilled 64-byte blocks, then uniformly
// random addresses with reads and writes half and half.
func BenchmarkFunctionalORAMStore(b *testing.B) {
	const workingSet = 4096
	o, err := NewORAM(DefaultORAMConfig())
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64)
	for a := uint64(0); a < workingSet; a++ {
		payload[0] = byte(a)
		if err := o.Write(a, payload); err != nil {
			b.Fatal(err)
		}
	}
	rng := xrand.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := rng.Uint64n(workingSet)
		if rng.Intn(2) == 0 {
			payload[0] = byte(i)
			err = o.Write(addr, payload)
		} else {
			benchRead, err = o.Read(addr)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSamplerAccess measures address-trace generation at the paper's
// full L=23 scale, refilling one trace as the timing simulator's SD does.
func BenchmarkSamplerAccess(b *testing.B) {
	s := oram.NewSampler(oram.PaperParams(), 1)
	var tr oram.Trace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AccessInto(&tr, uint64(i)%(1<<24))
		if len(tr.ReadNodes) != 21 {
			b.Fatal("bad trace")
		}
	}
}

// BenchmarkSimulateDORAM measures one full D-ORAM co-run simulation at
// reduced trace length.
func BenchmarkSimulateDORAM(b *testing.B) { benchmarkSimulateDORAM(b, 0) }

// BenchmarkSimulateDORAMSplit is BenchmarkSimulateDORAM with tree-top
// split k=1 (D-ORAM+1), so the relocated blocks' remote reads and writes
// over the normal channels show in its time and allocations.
func BenchmarkSimulateDORAMSplit(b *testing.B) { benchmarkSimulateDORAM(b, 1) }

func benchmarkSimulateDORAM(b *testing.B, splitK int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := DefaultSimConfig(SchemeDORAM, "libq")
		cfg.TraceLen = 1000
		cfg.SplitK = splitK
		if _, err := Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateDORAMMetrics is BenchmarkSimulateDORAM with the
// observability subsystem enabled; comparing the two measures the
// sampling overhead (the disabled-path cost is whatever gap remains
// between BenchmarkSimulateDORAM before and after the instrumentation
// landed — by design at most a nil check per instrumentation point).
func BenchmarkSimulateDORAMMetrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultSimConfig(SchemeDORAM, "libq")
		cfg.TraceLen = 1000
		cfg.Metrics = true
		if _, err := Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateDORAMTrace is BenchmarkSimulateDORAM with per-access
// tracing enabled but no event ring — the attribution-only run every traced
// job spec gets; comparing against the base benchmark measures the
// recording overhead (the disabled-path cost stays at a nil check per
// instrumentation point, same contract as the metrics subsystem).
func BenchmarkSimulateDORAMTrace(b *testing.B) {
	benchmarkTrace(b, 0)
}

// BenchmarkSimulateDORAMTraceRing adds the event ring an exporter
// (doramsim -trace-json) requests; the gap to BenchmarkSimulateDORAMTrace
// is what keeping span events costs.
func BenchmarkSimulateDORAMTraceRing(b *testing.B) {
	benchmarkTrace(b, evtrace.DefaultLimit)
}

func benchmarkTrace(b *testing.B, limit int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := DefaultSimConfig(SchemeDORAM, "libq")
		cfg.TraceLen = 1000
		cfg.Trace = true
		cfg.TraceEventLimit = limit
		if _, err := Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// idleHeavyConfig is the fast-forward showcase workload: one S-App, no
// NS-Apps, widely spaced ORAM requests (Pace=4000 CPU cycles between
// response and next issue), so the vast majority of cycles are idle waits
// the event-horizon scheduler can jump over. The measured speedup is
// recorded in DESIGN §11 and guarded by TestFastForwardSpeedupGuard.
func idleHeavyConfig() core.Config {
	cfg := core.DefaultConfig(core.DORAM, "libq")
	cfg.NumNS = 0
	cfg.TraceLen = 2000
	cfg.Pace = 4000
	return cfg
}

func runIdleHeavy(b *testing.B, noFF bool) {
	for i := 0; i < b.N; i++ {
		cfg := idleHeavyConfig()
		cfg.NoFastForward = noFF
		sys, err := core.NewSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunFastForwardIdleHeavy measures the event-horizon scheduler on
// the idle-heavy workload; the ratio against BenchmarkRunEveryCycleIdleHeavy
// is the fast-forward speedup (≥2x on this workload).
func BenchmarkRunFastForwardIdleHeavy(b *testing.B) { runIdleHeavy(b, false) }

// BenchmarkRunEveryCycleIdleHeavy is the cycle-by-cycle reference loop on
// the same workload.
func BenchmarkRunEveryCycleIdleHeavy(b *testing.B) { runIdleHeavy(b, true) }

// BenchmarkMerkleVerifyPath measures one path verification on an L=15
// hash tree.
func BenchmarkMerkleVerifyPath(b *testing.B) {
	p := oram.Params{Levels: 15, Z: 4, BlockSize: 64, TopCacheLevels: 0, StashCapacity: 100}
	m := oram.NewMerkle(p)
	cts := make([][]byte, p.Levels+1)
	for i := range cts {
		cts[i] = make([]byte, 256)
	}
	if err := m.UpdatePath(5, cts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.VerifyPath(5, cts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecursiveMapLookup measures one position lookup through a
// two-level recursive map.
func BenchmarkRecursiveMapLookup(b *testing.B) {
	rm, err := oram.NewRecursiveMap(oram.DefaultRecursiveMapConfig(1 << 18))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rm.Set(uint64(i)%1000, uint64(i))
		if rm.Get(uint64(i)%1000) != uint64(i) {
			b.Fatal("lookup mismatch")
		}
	}
}

// BenchmarkDRAMChannelCycle measures one memory-controller tick under a
// steady request stream (the simulator's hot loop).
func BenchmarkDRAMChannelCycle(b *testing.B) {
	cfg := mc.DefaultConfig()
	cfg.RefreshEnabled = false
	ctrl := mc.New(dram.NewChannel(dram.DDR31600(), 1, 8), cfg)
	now := uint64(0)
	i := 0
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if r, _ := ctrl.QueueLen(); r < 16 {
			ctrl.Enqueue(&mc.Request{Op: mc.OpRead,
				Coord: addrmap.Coord{Bank: i % 8, Row: int64(i % 64), Col: i % 128}}, now)
			i++
		}
		ctrl.Tick(now)
		now++
	}
}

// BenchmarkTraceGeneration measures synthetic trace record production.
func BenchmarkTraceGeneration(b *testing.B) {
	spec, _ := trace.ByName("face")
	g := trace.NewGenerator(spec, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
