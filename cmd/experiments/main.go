// Command experiments regenerates the paper's evaluation: every table and
// figure of §V of "D-ORAM" (HPCA 2018).
//
// Usage:
//
//	experiments                      # run everything at default scale
//	experiments -exp fig9            # one experiment
//	experiments -exp eviction        # eviction-strategy ablation
//	experiments -exp fig4 -quick     # reduced sweep
//	experiments -trace 20000         # longer traces (slower, steadier)
//	experiments -benches black,libq  # workload subset
//	experiments -exp fig9 -eviction deterministic-two-path
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"doram"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id: all, "+strings.Join(doram.Experiments(), ", "))
		quick   = flag.Bool("quick", false, "reduced sweep (3 benchmarks, short traces)")
		trace   = flag.Uint64("trace", 0, "memory accesses per core per run (0 = default)")
		seed    = flag.Uint64("seed", 0, "simulation seed (0 = default)")
		benches = flag.String("benches", "", "comma-separated benchmark subset")
		asCSV   = flag.Bool("csv", false, "emit data tables as CSV instead of text")

		eviction = flag.String("eviction", "", "S-App eviction strategy for every run: "+strings.Join(doram.EvictionStrategies(), ", "))

		metricsDir   = flag.String("metrics-dir", "", "write one metric dump JSON per run into this directory (enables metrics)")
		metricsEpoch = flag.Uint64("metrics-epoch", 0, "timeline sampling period in CPU cycles (0 = default)")
		traceDir     = flag.String("trace-dir", "", "write one sampled Chrome trace JSON per run into this directory (enables tracing, ORAM spans only)")
		endpoint     = flag.String("endpoint", "", "offload runs to the doramd service at this base URL (e.g. http://127.0.0.1:8344)")
	)
	flag.Parse()

	if err := validateName("eviction", *eviction, doram.EvictionStrategies()); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}

	opts := doram.ExperimentOptions{
		Quick: *quick, TraceLen: *trace, Seed: *seed,
		MetricsDir: *metricsDir, MetricsEpochCycles: *metricsEpoch,
		TraceDir: *traceDir, Endpoint: *endpoint,
		Eviction: *eviction,
	}
	if *benches != "" {
		opts.Benchmarks = strings.Split(*benches, ",")
	}

	ids := doram.Experiments()
	if *exp != "all" {
		ids = []string{*exp}
	}
	for _, id := range ids {
		start := time.Now()
		run := doram.RunExperiment
		if *asCSV {
			run = doram.RunExperimentCSV
		}
		out, err := run(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Print(out)
		if !*asCSV {
			fmt.Printf("[%s completed in %.1fs]\n\n", id, time.Since(start).Seconds())
		}
	}
}

// validateName rejects a backend name that is not registered, naming the
// valid set; the empty name (the default backend) always passes.
func validateName(kind, name string, valid []string) error {
	if name == "" {
		return nil
	}
	for _, v := range valid {
		if name == v {
			return nil
		}
	}
	return fmt.Errorf("unknown -%s %q (want one of %s)", kind, name, strings.Join(valid, ", "))
}
