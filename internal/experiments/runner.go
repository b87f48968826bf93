package experiments

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"doram/internal/core"
	"doram/internal/evtrace"
	"doram/internal/trace"
)

// Options tunes an experiment sweep.
type Options struct {
	// TraceLen is the memory accesses each core replays per run.
	TraceLen uint64
	// Seed drives all randomness (traces, ORAM remapping).
	Seed uint64
	// Benchmarks restricts the workload set; nil means all 15 (Table III).
	Benchmarks []string

	// MetricsDir, when set, enables the observability subsystem on every
	// run of the sweep and writes each run's metric dump to
	// "<MetricsDir>/run<NNN>_<scheme>_<bench>.json".
	MetricsDir string
	// MetricsEpochCycles overrides the timeline sampling period; 0 uses
	// core.DefaultMetricsEpochCycles.
	MetricsEpochCycles uint64

	// TraceDir, when set, enables per-access event tracing on every run of
	// the sweep (ORAM spans only, sampled every 16th access to keep files
	// small; latency breakdowns still cover every access) and writes each
	// run's Chrome trace JSON to
	// "<TraceDir>/run<NNN>_<scheme>_<bench>.trace.json".
	TraceDir string

	// Eviction, when non-empty, selects the S-App eviction strategy for
	// every run of the sweep (backend.Evictions() names). The stashless
	// sampler's traces only change for strategies that add eviction paths.
	Eviction string

	// Exec, when set, runs each config in place of the in-process
	// simulation — the hook a remote executor (a doramd endpoint) plugs
	// into. It must return the result an in-process run would.
	Exec func(core.Config) (*core.Results, error)
}

// sweepTraceSample is the event-ring sampling stride sweeps use: one traced
// ORAM access in 16 keeps per-run trace files small while every access
// still lands in the attribution histograms.
const sweepTraceSample = 16

// DefaultOptions returns the evaluation defaults: every Table III
// benchmark at a trace length long enough for steady-state queues.
func DefaultOptions() Options {
	return Options{TraceLen: 8000, Seed: 42}
}

// QuickOptions returns a reduced sweep for benchmarks and smoke tests.
func QuickOptions() Options {
	return Options{TraceLen: 2500, Seed: 42, Benchmarks: []string{"black", "face", "libq"}}
}

func (o Options) benchmarks() []string {
	if o.Benchmarks != nil {
		return o.Benchmarks
	}
	return trace.Names()
}

// apply stamps the option's run-scale fields onto a config. Latency
// statistics discard a cold-start warmup proportional to the run length.
func (o Options) apply(cfg core.Config) core.Config {
	cfg.TraceLen = o.TraceLen
	cfg.Seed = o.Seed
	cfg.LatencyWarmup = o.TraceLen / 20
	if o.MetricsDir != "" {
		cfg.MetricsEpochCycles = o.MetricsEpochCycles
		if cfg.MetricsEpochCycles == 0 {
			cfg.MetricsEpochCycles = core.DefaultMetricsEpochCycles
		}
	}
	if o.TraceDir != "" {
		cfg.TraceEvents = true
		cfg.TraceLimit = evtrace.DefaultLimit // the dump exports the ring
		cfg.TraceSample = sweepTraceSample
		cfg.TraceOramOnly = true
	}
	if o.Eviction != "" {
		cfg.Eviction = o.Eviction
	}
	return cfg
}

// runAll executes the configs concurrently, at most GOMAXPROCS at a time,
// and returns results in order.
// Every failed run of the sweep is reported, not just the first, so a
// broken 15-benchmark sweep surfaces all broken configs at once.
func runAll(o Options, cfgs []core.Config) ([]*core.Results, error) {
	results := make([]*core.Results, len(cfgs))
	errs := make([]error, len(cfgs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(i int, cfg core.Config) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = o.run(cfg)
		}(i, cfg)
	}
	wg.Wait()
	var failures []error
	for i, err := range errs {
		if err != nil {
			failures = append(failures, fmt.Errorf("run %d (%s/%s): %w",
				i, cfgs[i].Scheme, cfgs[i].Benchmark, err))
		}
	}
	if len(failures) > 0 {
		return nil, fmt.Errorf("experiments: %d of %d runs failed: %w",
			len(failures), len(cfgs), errors.Join(failures...))
	}
	if o.MetricsDir != "" {
		err := dumpRuns(o.MetricsDir, "metrics", ".json", cfgs, results,
			func(r *core.Results) func(io.Writer) error {
				if r.Metrics == nil {
					return nil
				}
				return r.Metrics.WriteJSON
			})
		if err != nil {
			return nil, err
		}
	}
	if o.TraceDir != "" {
		err := dumpRuns(o.TraceDir, "trace", ".trace.json", cfgs, results,
			func(r *core.Results) func(io.Writer) error {
				if r.Trace == nil {
					return nil
				}
				return r.Trace.WriteChrome
			})
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// runBenches builds each benchmark's configs with build, runs them all as
// one runAll batch (so per-run dumps are numbered once across the sweep)
// and returns each benchmark's results in build order.
func runBenches(o Options, build func(bench string) []core.Config) ([][]*core.Results, error) {
	var cfgs []core.Config
	var sizes []int
	for _, b := range o.benchmarks() {
		bc := build(b)
		cfgs = append(cfgs, bc...)
		sizes = append(sizes, len(bc))
	}
	res, err := runAll(o, cfgs)
	if err != nil {
		return nil, err
	}
	out := make([][]*core.Results, len(sizes))
	for i, n := range sizes {
		out[i], res = res[:n], res[n:]
	}
	return out, nil
}

// run executes one config through Exec, in-process when none is set.
func (o Options) run(cfg core.Config) (*core.Results, error) {
	if o.Exec != nil {
		return o.Exec(cfg)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return sys.Run()
}

// dumpRuns writes one file per run under dir, named
// "run<NNN>_<scheme>_<bench><suffix>", with write; kind names the dump in
// errors. Runs for which write is nil are skipped.
func dumpRuns(dir, kind, suffix string, cfgs []core.Config, results []*core.Results,
	writer func(*core.Results) func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: %s dir: %w", kind, err)
	}
	for i, res := range results {
		if res == nil {
			continue
		}
		write := writer(res)
		if write == nil {
			continue
		}
		name := fmt.Sprintf("run%03d_%s_%s%s", i, cfgs[i].Scheme, cfgs[i].Benchmark, suffix)
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("experiments: %s dump: %w", kind, err)
		}
		werr := write(f)
		cerr := f.Close()
		if werr != nil {
			return fmt.Errorf("experiments: %s dump %s: %w", kind, name, werr)
		}
		if cerr != nil {
			return fmt.Errorf("experiments: %s dump %s: %w", kind, name, cerr)
		}
	}
	return nil
}

// soloConfig is the 1NS reference run (no co-runners, all channels).
func soloConfig(o Options, bench string) core.Config {
	cfg := core.DefaultConfig(core.NonSecure, bench)
	cfg.NumNS = 1
	cfg.HasSApp = false
	return o.apply(cfg)
}

// corunConfig is 7 NS-Apps with no S-App on the given channels.
func corunConfig(o Options, bench string, channels []int) core.Config {
	cfg := core.DefaultConfig(core.NonSecure, bench)
	cfg.NumNS = 7
	cfg.HasSApp = false
	cfg.NSChannels = channels
	return o.apply(cfg)
}

// doramConfig is the 1S7NS D-ORAM run with split k and sharing c.
func doramConfig(o Options, bench string, k, c int) core.Config {
	cfg := core.DefaultConfig(core.DORAM, bench)
	cfg.SplitK = k
	cfg.SecureSharers = c
	return o.apply(cfg)
}

// baselineConfig is the 1S7NS Path ORAM baseline run.
func baselineConfig(o Options, bench string) core.Config {
	return o.apply(core.DefaultConfig(core.PathORAMBaseline, bench))
}

// secureMemoryConfig is the 1S7NS run with a secure-memory S-App.
func secureMemoryConfig(o Options, bench string) core.Config {
	return o.apply(core.DefaultConfig(core.SecureMemory, bench))
}
