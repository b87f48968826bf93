package doram

// Differential test harness for the fast-forward scheduler: every
// configuration is run twice — once with the event-horizon loop (the
// default) and once with the cycle-by-cycle reference loop — and the two
// runs must be bit-identical in every observable: the full Results struct
// (cycle counts, latency statistics, energy, link faults), the metrics
// registry dump and sampled timeline, and the exported Chrome trace bytes.
// Any divergence means a NextEvent method under-reported an event or a
// Skip compensation miscounted, so failures here name the first differing
// field rather than just "mismatch".

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"doram/internal/core"
	"doram/internal/evtrace"
)

// runMode is one execution strategy under differential comparison.
type runMode struct {
	name string
	noFF bool
}

// diffModes are the two loops every differential case exercises.
var diffModes = []runMode{
	{name: "fast-forward"},
	{name: "naive", noFF: true},
}

// runMode executes cfg under one execution strategy.
func (m runMode) run(t *testing.T, cfg core.Config) *core.Results {
	t.Helper()
	res, err := m.start(cfg)
	if err != nil {
		t.Fatalf("Run (%s): %v", m.name, err)
	}
	return res
}

func (m runMode) start(cfg core.Config) (*core.Results, error) {
	c := cfg
	c.NoFastForward = m.noFF
	sys, err := core.NewSystem(c)
	if err != nil {
		return nil, fmt.Errorf("NewSystem: %v", err)
	}
	return sys.Run()
}

// runModes executes cfg under both loops and returns the results in
// diffModes order: fast-forward, naive.
func runModes(t *testing.T, cfg core.Config) []*core.Results {
	t.Helper()
	out := make([]*core.Results, len(diffModes))
	for i, m := range diffModes {
		out[i] = m.run(t, cfg)
	}
	return out
}

// diffResults compares two Results field by field and returns the name of
// the first differing field, or "" when identical. The Config field is
// compared with the execution-strategy knob NoFastForward normalized — it
// is the input allowed to differ.
func diffResults(ff, naive *core.Results) string {
	a, b := *ff, *naive
	for _, c := range []*core.Config{&a.Config, &b.Config} {
		c.NoFastForward = false
	}
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return va.Type().Field(i).Name
		}
	}
	return ""
}

// assertIdentical fails the test naming the first divergent observable
// between any mode and the first (the fast-forward run).
func assertIdentical(t *testing.T, cfg core.Config, results []*core.Results) {
	t.Helper()
	ref := results[0]
	for i, res := range results[1:] {
		label := fmt.Sprintf("%s vs %s", diffModes[0].name, diffModes[i+1].name)
		if ref.Cycles != res.Cycles {
			t.Fatalf("cycle count diverged (%s): %d vs %d (cfg %+v)",
				label, ref.Cycles, res.Cycles, cfg)
		}
		if field := diffResults(ref, res); field != "" {
			t.Fatalf("Results.%s diverged (%s) (cfg %+v)", field, label, cfg)
		}
		if (ref.Trace == nil) != (res.Trace == nil) {
			t.Fatalf("trace presence diverged (%s)", label)
		}
		if ref.Trace != nil {
			var fb, nb bytes.Buffer
			if err := ref.Trace.WriteChrome(&fb); err != nil {
				t.Fatal(err)
			}
			if err := res.Trace.WriteChrome(&nb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fb.Bytes(), nb.Bytes()) {
				t.Fatalf("exported Chrome trace bytes diverged (%s, %d vs %d bytes)",
					label, fb.Len(), nb.Len())
			}
		}
	}
}

// diffCfg is a compact scheme-by-scheme matrix kept small enough that the
// naive reference runs stay affordable.
func diffCfg(scheme core.Scheme, numNS int) core.Config {
	cfg := core.DefaultConfig(scheme, "libq")
	cfg.NumNS = numNS
	cfg.TraceLen = 1200
	return cfg
}

func TestDifferentialAllSchemes(t *testing.T) {
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"non-secure", diffCfg(core.NonSecure, 4)},
		{"path-oram", diffCfg(core.PathORAMBaseline, 2)},
		{"secure-memory", diffCfg(core.SecureMemory, 2)},
		{"d-oram", diffCfg(core.DORAM, 3)},
		{"d-oram-splitk", func() core.Config {
			cfg := diffCfg(core.DORAM, 2)
			cfg.SplitK = 2
			return cfg
		}()},
		{"d-oram-sharers", func() core.Config {
			cfg := diffCfg(core.DORAM, 3)
			cfg.SecureSharers = 1
			cfg.NSChannels = []int{0, 1, 2}
			return cfg
		}()},
		{"d-oram-idle-heavy", func() core.Config {
			cfg := diffCfg(core.DORAM, 0)
			cfg.Pace = 4000
			return cfg
		}()},
		{"path-oram-idle-heavy", func() core.Config {
			cfg := diffCfg(core.PathORAMBaseline, 0)
			cfg.Pace = 4000
			return cfg
		}()},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			assertIdentical(t, tc.cfg, runModes(t, tc.cfg))
		})
	}
}

// TestDifferentialObservability re-runs the D-ORAM scheme with each
// observability subsystem enabled: the sampled timeline and the trace ring
// are exactly the states where elided ticks could leak (a missed Sample
// boundary, a skipped settle before an epoch, a dropped span).
func TestDifferentialObservability(t *testing.T) {
	variants := []struct {
		name string
		mod  func(*core.Config)
	}{
		{"metrics", func(c *core.Config) { c.MetricsEpochCycles = core.DefaultMetricsEpochCycles }},
		{"metrics-fine-epoch", func(c *core.Config) { c.MetricsEpochCycles = 512 }},
		{"trace", func(c *core.Config) {
			c.TraceEvents = true
			c.TraceLimit = evtrace.DefaultLimit
		}},
		{"trace-sampled", func(c *core.Config) {
			c.TraceEvents = true
			c.TraceLimit = evtrace.DefaultLimit
			c.TraceSample = 3
			c.TraceTopK = 4
		}},
		{"metrics-and-trace", func(c *core.Config) {
			c.MetricsEpochCycles = 1024
			c.TraceEvents = true
			c.TraceLimit = evtrace.DefaultLimit
		}},
		{"link-faults", func(c *core.Config) {
			c.LinkCorruptProb = 0.02
			c.LinkLossProb = 0.01
			c.MetricsEpochCycles = core.DefaultMetricsEpochCycles
		}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			cfg := diffCfg(core.DORAM, 2)
			v.mod(&cfg)
			assertIdentical(t, cfg, runModes(t, cfg))
		})
	}
}

// TestFastForwardSpeedupGuard is the benchmark regression guard: on the
// idle-heavy workload (one S-App, no NS-Apps, Pace=4000) the event-horizon
// scheduler must beat the cycle-by-cycle reference loop by at least
// minSpeedup wall-clock, and the two runs must agree on the cycle count.
// Measured at 2.21x (recorded in DESIGN §11); the floor
// sits below that to absorb runner noise while still catching a real
// regression of the fast-forward path. Timing assertions are inherently
// machine-dependent, so the guard only runs when DORAM_SPEEDUP_GUARD is
// set — CI enables it in the differential job.
func TestFastForwardSpeedupGuard(t *testing.T) {
	if os.Getenv("DORAM_SPEEDUP_GUARD") == "" {
		t.Skip("wall-clock guard; set DORAM_SPEEDUP_GUARD=1 to run")
	}
	const minSpeedup = 1.8
	cfg := core.DefaultConfig(core.DORAM, "libq")
	cfg.NumNS = 0
	cfg.TraceLen = 2000
	cfg.Pace = 4000
	run := func(noFF bool) (time.Duration, uint64) {
		best := time.Duration(0)
		var cycles uint64
		for i := 0; i < 3; i++ { // min of 3: rejects one-off scheduler hiccups
			c := cfg
			c.NoFastForward = noFF
			sys, err := core.NewSystem(c)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			res, err := sys.Run()
			el := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if best == 0 || el < best {
				best = el
			}
			cycles = res.Cycles
		}
		return best, cycles
	}
	ffTime, ffCycles := run(false)
	naiveTime, naiveCycles := run(true)
	if ffCycles != naiveCycles {
		t.Fatalf("cycle count diverged: fast-forward=%d naive=%d", ffCycles, naiveCycles)
	}
	speedup := float64(naiveTime) / float64(ffTime)
	t.Logf("idle-heavy speedup: %.2fx (naive %v, fast-forward %v, %d cycles)",
		speedup, naiveTime, ffTime, ffCycles)
	if speedup < minSpeedup {
		t.Fatalf("fast-forward speedup %.2fx below the %.1fx floor (naive %v, fast-forward %v)",
			speedup, minSpeedup, naiveTime, ffTime)
	}
}

// assertSameExports requires every run's metrics dump to serialize to the
// same JSON and CSV bytes — the exported timeline, not just the in-memory
// structs, is what plotting pipelines consume.
func assertSameExports(t *testing.T, results []*core.Results) {
	t.Helper()
	encode := func(res *core.Results) (string, string) {
		if res.Metrics == nil {
			t.Fatalf("run produced no metrics dump")
		}
		var j, c bytes.Buffer
		if err := res.Metrics.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := res.Metrics.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	refJSON, refCSV := encode(results[0])
	for i, res := range results[1:] {
		j, c := encode(res)
		if j != refJSON {
			t.Fatalf("metrics JSON export diverged (%s vs %s)",
				diffModes[0].name, diffModes[i+1].name)
		}
		if c != refCSV {
			t.Fatalf("timeline CSV export diverged (%s vs %s)",
				diffModes[0].name, diffModes[i+1].name)
		}
	}
}

// TestDifferentialTimelineBoundaries pins the epoch-sampled timeline at
// the places elision could skew it: a run whose finish cycle lands in the
// middle of an epoch (the final settleMem must account the partial epoch
// identically), a fine epoch on an idle-heavy workload where jumps span
// many sample boundaries (each boundary is a jump target and forces a
// mid-jump settle), and MaxCycles truncation both mid-epoch and exactly
// on a sample boundary (all loops must give up at the same cycle with the
// same error).
func TestDifferentialTimelineBoundaries(t *testing.T) {
	t.Run("finish-mid-epoch", func(t *testing.T) {
		t.Parallel()
		cfg := diffCfg(core.DORAM, 2)
		cfg.MetricsEpochCycles = 1000
		results := runModes(t, cfg)
		if results[0].Cycles%cfg.MetricsEpochCycles == 0 {
			t.Fatalf("finish cycle %d lands on an epoch boundary; pick another epoch length",
				results[0].Cycles)
		}
		assertIdentical(t, cfg, results)
		assertSameExports(t, results)
	})
	t.Run("fine-epoch-across-jumps", func(t *testing.T) {
		t.Parallel()
		cfg := diffCfg(core.DORAM, 0)
		cfg.Pace = 4000 // idle-heavy: fast-forward jumps cross many epochs
		cfg.MetricsEpochCycles = 512
		results := runModes(t, cfg)
		if tl := results[0].Timeline; tl == nil || len(tl.Epochs) < 2 {
			t.Fatal("run sampled fewer than two epochs; the case is vacuous")
		}
		assertIdentical(t, cfg, results)
		assertSameExports(t, results)
	})
	truncated := func(t *testing.T, maxCycles uint64) {
		t.Helper()
		cfg := diffCfg(core.DORAM, 2)
		cfg.MetricsEpochCycles = 4096
		cfg.MaxCycles = maxCycles
		var refErr error
		for i, m := range diffModes {
			_, err := m.start(cfg)
			if err == nil {
				t.Fatalf("%s: run under MaxCycles=%d finished without the overrun error",
					m.name, maxCycles)
			}
			if i == 0 {
				refErr = err
				continue
			}
			if err.Error() != refErr.Error() {
				t.Fatalf("overrun error diverged (%s vs %s):\n%v\n%v",
					diffModes[0].name, m.name, refErr, err)
			}
		}
	}
	t.Run("maxcycles-mid-epoch", func(t *testing.T) {
		t.Parallel()
		truncated(t, 10_000) // 10000 % 4096 != 0: truncation inside an epoch
	})
	t.Run("maxcycles-on-epoch-boundary", func(t *testing.T) {
		t.Parallel()
		truncated(t, 8192) // 2*4096: truncation exactly on a sample boundary
	})
}

// ffFuzzSeed returns the property-test seed: DORAM_FF_SEED when set (to
// replay a CI failure locally), else a fixed default so the suite is
// deterministic run to run.
func ffFuzzSeed(t *testing.T) int64 {
	if s := os.Getenv("DORAM_FF_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("DORAM_FF_SEED=%q: %v", s, err)
		}
		return v
	}
	return 0x0d0e_a41f
}

// randomConfig draws one simulation config from the generator's support:
// all four schemes, 0-3 NS-Apps, the k-split and c-limit knobs, both
// memory generations, pacing from saturated to idle-heavy, and optional
// observability. Trace lengths stay small so the naive reference runs are
// affordable.
func randomConfig(r *rand.Rand) core.Config {
	schemes := []core.Scheme{core.NonSecure, core.PathORAMBaseline, core.SecureMemory, core.DORAM}
	scheme := schemes[r.Intn(len(schemes))]
	benches := []string{"libq", "face", "black"}
	cfg := core.DefaultConfig(scheme, benches[r.Intn(len(benches))])
	cfg.NumNS = r.Intn(4)
	if scheme == core.NonSecure && cfg.NumNS == 0 {
		cfg.NumNS = 1 // a run needs at least one measured core
	}
	cfg.TraceLen = 400 + uint64(r.Intn(5))*150
	cfg.Seed = r.Uint64()%1000 + 1
	cfg.Pace = []uint64{50, 400, 4000}[r.Intn(3)]
	cfg.DDR4 = r.Intn(2) == 0
	if scheme == core.DORAM {
		cfg.SplitK = r.Intn(3)
		if cfg.NumNS > 0 && r.Intn(2) == 0 {
			cfg.SecureSharers = r.Intn(cfg.NumNS + 1)
		}
		if r.Intn(4) == 0 {
			cfg.LinkCorruptProb = 0.01
		}
		cfg.LinkLatencyNs = []float64{0, 10, 25}[r.Intn(3)]
	}
	if scheme == core.DORAM || scheme == core.PathORAMBaseline {
		cfg.OverlapPhases = r.Intn(2) == 0
		cfg.ForkPath = r.Intn(4) == 0
	}
	switch r.Intn(3) {
	case 0:
		cfg.MetricsEpochCycles = []uint64{512, 4096}[r.Intn(2)]
	case 1:
		cfg.TraceEvents = true
		cfg.TraceLimit = evtrace.DefaultLimit
		cfg.TraceSample = uint64(r.Intn(3)) // 0, 1 or 2
	}
	return cfg
}

// TestDifferentialRandomConfigs is the randomized property test: N
// generated configs, each run under both loops and compared in full. On
// failure it logs the generator seed, the case index and the complete
// failing config as a Go literal, so the case can be replayed with
// DORAM_FF_SEED (or pasted into a regression test) and shrunk by hand.
func TestDifferentialRandomConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("naive reference runs are slow; skipped with -short")
	}
	seed := ffFuzzSeed(t)
	r := rand.New(rand.NewSource(seed))
	const cases = 8
	for i := 0; i < cases; i++ {
		cfg := randomConfig(r)
		name := fmt.Sprintf("case%02d-%v", i, cfg.Scheme)
		t.Run(name, func(t *testing.T) {
			defer func() {
				if t.Failed() {
					t.Logf("replay: DORAM_FF_SEED=%d (case %d); failing config:\n%#v", seed, i, cfg)
				}
			}()
			assertIdentical(t, cfg, runModes(t, cfg))
		})
	}
}
