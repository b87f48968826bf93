// Command doramsim runs one co-run simulation of the D-ORAM system model
// and prints a summary.
//
// Usage:
//
//	doramsim -scheme d-oram -bench face
//	doramsim -scheme path-oram -bench libq -trace 20000
//	doramsim -scheme d-oram -bench mummer -k 1 -c 4
//	doramsim -scheme non-secure -bench black -ns 7 -channels 1,2,3
//	doramsim -chaos -seed 7
//	doramsim -scheme d-oram -bench face -eviction deterministic-two-path
//	doramsim -chaos -seed 3 -encryptor aes-gcm
//	doramsim -scheme d-oram -bench face -link-corrupt 0.02 -link-loss 0.01
//	doramsim -scheme d-oram -bench face -metrics-json metrics.json -metrics-csv timeline.csv
//	doramsim -scheme d-oram -bench face -pprof cpu.out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	"doram"
)

func main() {
	var (
		scheme   = flag.String("scheme", "d-oram", "non-secure, path-oram, secure-memory, d-oram")
		bench    = flag.String("bench", "face", "benchmark (Table III): "+strings.Join(doram.Benchmarks(), ", "))
		numNS    = flag.Int("ns", 7, "number of NS-App copies")
		k        = flag.Int("k", 0, "D-ORAM tree split depth (0-3)")
		c        = flag.Int("c", -1, "NS-Apps allowed on the secure channel (-1 = all)")
		traceLen = flag.Uint64("trace", 8000, "memory accesses per core")
		seed     = flag.Uint64("seed", 1, "simulation seed")

		eviction  = flag.String("eviction", "", "S-App eviction strategy: "+strings.Join(doram.EvictionStrategies(), ", "))
		encryptor = flag.String("encryptor", "", "functional bucket encryptor for -chaos: "+strings.Join(doram.BucketEncryptors(), ", "))
		channels  = flag.String("channels", "", "NS channel subset, e.g. 1,2,3")
		asJSON    = flag.Bool("json", false, "emit the result as JSON")
		noFF      = flag.Bool("no-fast-forward", false, "visit every CPU cycle instead of fast-forwarding idle gaps (results are bit-identical either way)")

		chaos       = flag.Bool("chaos", false, "run a seeded fault-injection campaign against the functional ORAM and print a detection/recovery report")
		linkCorrupt = flag.Float64("link-corrupt", 0, "per-attempt BOB link frame corruption probability (d-oram)")
		linkLoss    = flag.Float64("link-loss", 0, "per-attempt BOB link frame loss probability (d-oram)")

		metricsOn    = flag.Bool("metrics", false, "enable the metric registry and timeline sampler")
		metricsEpoch = flag.Uint64("metrics-epoch", 0, "timeline sampling period in CPU cycles (0 = default; implies -metrics)")
		metricsJSON  = flag.String("metrics-json", "", "write the metric dump as JSON to this file (\"-\" = stdout; implies -metrics)")
		metricsCSV   = flag.String("metrics-csv", "", "write the sampled timeline as CSV to this file (\"-\" = stdout; implies -metrics)")

		traceJSON   = flag.String("trace-json", "", "write the per-access event trace as Chrome trace-event JSON to this file (\"-\" = stdout; implies tracing)")
		traceLimit  = flag.Int("trace-limit", 200000, "max span events -trace-json retains in its ring buffer (oldest dropped first)")
		traceSample = flag.Uint64("trace-sample", 1, "keep every Nth ORAM access / NS request in the -trace-json event ring")
		traceTop    = flag.Int("trace-top", 0, "report the N slowest ORAM accesses with per-stage breakdowns (implies tracing)")
		traceCheck  = flag.String("trace-validate", "", "validate a Chrome trace JSON file (nesting + timestamp invariants) and exit")

		pprofOut = flag.String("pprof", "", "write a CPU profile of the simulation to this file")
	)
	flag.Parse()

	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if err := checkFlagConflicts(explicit, *traceJSON, *traceLimit); err != nil {
		fmt.Fprintf(os.Stderr, "doramsim: %v\n", err)
		os.Exit(2)
	}
	if err := validateName("eviction", *eviction, doram.EvictionStrategies()); err != nil {
		fmt.Fprintf(os.Stderr, "doramsim: %v\n", err)
		os.Exit(2)
	}
	if err := validateName("encryptor", *encryptor, doram.BucketEncryptors()); err != nil {
		fmt.Fprintf(os.Stderr, "doramsim: %v\n", err)
		os.Exit(2)
	}

	if *traceCheck != "" {
		data, err := os.ReadFile(*traceCheck)
		if err == nil {
			err = doram.ValidateChromeTrace(data)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "doramsim: trace-validate: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s: trace OK\n", *traceCheck)
		return
	}

	if *chaos {
		runChaos(*seed, *eviction, *encryptor)
		return
	}

	cfg := doram.DefaultSimConfig(doram.Scheme(*scheme), *bench)
	cfg.NumNS = numNS
	cfg.SplitK = *k
	cfg.C = c
	cfg.TraceLen = *traceLen
	cfg.Seed = *seed
	cfg.Eviction = *eviction
	cfg.NoFastForward = *noFF
	cfg.LinkCorruptProb = *linkCorrupt
	cfg.LinkLossProb = *linkLoss
	cfg.Metrics = *metricsOn || *metricsJSON != "" || *metricsCSV != ""
	cfg.MetricsEpochCycles = *metricsEpoch
	cfg.Trace = *traceJSON != "" || *traceTop > 0
	if *traceJSON != "" {
		// Only the exporter reads the event ring; -trace-top alone runs
		// attribution-only.
		cfg.TraceEventLimit = *traceLimit
		cfg.TraceSample = *traceSample
	}
	cfg.TraceTopN = *traceTop
	if *channels != "" {
		for _, s := range strings.Split(*channels, ",") {
			ch, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(os.Stderr, "doramsim: bad channel %q\n", s)
				os.Exit(2)
			}
			cfg.NSChannels = append(cfg.NSChannels, ch)
		}
	}

	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doramsim: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "doramsim: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	res, err := doram.Simulate(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doramsim: %v\n", err)
		os.Exit(1)
	}
	if *pprofOut != "" {
		pprof.StopCPUProfile()
	}

	if err := writeMetrics(res, *metricsJSON, *metricsCSV); err != nil {
		fmt.Fprintf(os.Stderr, "doramsim: %v\n", err)
		os.Exit(1)
	}
	if err := writeTrace(res, *traceJSON); err != nil {
		fmt.Fprintf(os.Stderr, "doramsim: %v\n", err)
		os.Exit(1)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(os.Stderr, "doramsim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("scheme=%s benchmark=%s ns=%d k=%d c=%d trace=%d\n",
		*scheme, *bench, *numNS, *k, *c, *traceLen)
	fmt.Printf("  NS execution time (avg):  %.0f cycles\n", res.AvgNSExecCycles)
	for i, f := range res.NSFinish {
		fmt.Printf("    NS core %d: %d cycles\n", i, f)
	}
	fmt.Printf("  NS read latency:          %.1f ns (p50<=%.0f p95<=%.0f p99<=%.0f)\n",
		res.NSReadLatencyNs, res.NSReadP50Ns, res.NSReadP95Ns, res.NSReadP99Ns)
	fmt.Printf("  NS write latency:         %.1f ns\n", res.NSWriteLatencyNs)
	if res.ORAMAccesses > 0 {
		fmt.Printf("  ORAM accesses completed:  %d\n", res.ORAMAccesses)
		fmt.Printf("  ORAM access time:         %.0f ns\n", res.ORAMAccessNs)
	}
	fmt.Printf("  DRAM energy:              %.1f uJ\n", res.TotalEnergyUJ)
	if lf := res.LinkFaults; lf.Corrupted+lf.Lost > 0 {
		fmt.Printf("  link faults recovered:    %d corrupted + %d lost (%d retransmits, +%.0f ns, %d give-ups)\n",
			lf.Corrupted, lf.Lost, lf.Retransmits, lf.RetryDelayNs, lf.GiveUps)
	}
	if res.LatencyBreakdown != nil {
		printTraceReport(res.LatencyBreakdown)
	}
	if *traceTop > 0 && res.Trace != nil {
		printTraceTop(res.Trace, *traceTop)
	}
}

// checkFlagConflicts rejects contradictory flag combinations up front,
// instead of letting a meaningless knob silently do nothing. explicit
// holds the flags the user actually set (flag.Visit), so defaults never
// trip a conflict.
func checkFlagConflicts(explicit map[string]bool, traceJSON string, traceLimit int) error {
	if explicit["chaos"] {
		for _, name := range []string{
			"scheme", "bench", "ns", "k", "c", "trace", "channels", "json",
			"no-fast-forward", "link-corrupt", "link-loss",
			"metrics", "metrics-epoch", "metrics-json", "metrics-csv",
			"trace-json", "trace-limit", "trace-sample", "trace-top", "trace-validate",
		} {
			if explicit[name] {
				return fmt.Errorf("-chaos runs a fixed fault campaign against the functional ORAM; -%s does not apply (only -seed, -eviction and -encryptor do)", name)
			}
		}
	} else if explicit["encryptor"] {
		return fmt.Errorf("-encryptor picks the bucket cipher of the functional ORAM only -chaos runs; add -chaos")
	}
	if (explicit["trace-sample"] || explicit["trace-limit"]) && traceJSON == "" {
		return fmt.Errorf("-trace-sample/-trace-limit shape the event ring only -trace-json exports; add -trace-json")
	}
	if traceJSON != "" && traceLimit < 1 {
		return fmt.Errorf("-trace-json needs -trace-limit >= 1 to keep any span events")
	}
	if explicit["trace-validate"] {
		for name := range explicit {
			if name != "trace-validate" {
				return fmt.Errorf("-trace-validate checks an existing trace file and exits; -%s does not apply", name)
			}
		}
	}
	return nil
}

// printTraceReport renders the latency-attribution table: per request kind
// the end-to-end distribution, then each stage's share of the mean (stage
// means sum to the end-to-end mean; percentiles are per-stage marginals).
func printTraceReport(rep *doram.TraceReport) {
	if len(rep.Kinds) == 0 {
		return
	}
	fmt.Printf("  latency attribution (CPU cycles):\n")
	for _, k := range rep.Kinds {
		t := k.Total
		fmt.Printf("    %-10s n=%-8d mean=%-10.1f p50<=%-8d p95<=%-8d p99<=%d\n",
			k.Kind, t.Count, t.Mean, t.P50, t.P95, t.P99)
		for _, st := range k.Stages {
			share := 0.0
			if t.Mean > 0 {
				share = 100 * st.Mean / t.Mean
			}
			fmt.Printf("      %-12s %5.1f%%  mean=%-10.1f p50<=%-8d p95<=%-8d p99<=%d\n",
				st.Stage, share, st.Mean, st.P50, st.P95, st.P99)
		}
	}
}

// printTraceTop renders the slowest ORAM accesses, worst first, with their
// per-stage splits.
func printTraceTop(tr *doram.EventTrace, n int) {
	if n > len(tr.Top) {
		n = len(tr.Top)
	}
	if n == 0 {
		return
	}
	fmt.Printf("  slowest ORAM accesses (CPU cycles):\n")
	for i := 0; i < n; i++ {
		a := tr.Top[i]
		fmt.Printf("    #%-2d start=%-12d total=%-8d", i+1, a.Start, a.Total)
		for _, st := range a.Stages {
			if st.Dur > 0 {
				fmt.Printf(" %s=%d", st.Name, st.Dur)
			}
		}
		fmt.Println()
	}
}

// writeTrace exports the run's event trace as Chrome trace-event JSON;
// "-" means stdout.
func writeTrace(res *doram.SimResult, path string) error {
	if path == "" {
		return nil
	}
	if res.Trace == nil {
		return fmt.Errorf("trace-json: run produced no event trace")
	}
	w, closeFn, err := openOut(path)
	if err != nil {
		return err
	}
	werr := res.Trace.WriteChrome(w)
	if err := closeFn(); werr == nil {
		werr = err
	}
	if werr != nil {
		return fmt.Errorf("trace-json: %w", werr)
	}
	return nil
}

// writeMetrics exports the run's metric dump (JSON) and sampled timeline
// (CSV) to the requested destinations; "-" means stdout.
func writeMetrics(res *doram.SimResult, jsonPath, csvPath string) error {
	if jsonPath != "" {
		if res.Metrics == nil {
			return fmt.Errorf("metrics-json: run produced no metric dump")
		}
		w, closeFn, err := openOut(jsonPath)
		if err != nil {
			return err
		}
		werr := res.Metrics.WriteJSON(w)
		if err := closeFn(); werr == nil {
			werr = err
		}
		if werr != nil {
			return fmt.Errorf("metrics-json: %w", werr)
		}
	}
	if csvPath != "" {
		if res.Metrics == nil {
			return fmt.Errorf("metrics-csv: run produced no metric dump")
		}
		w, closeFn, err := openOut(csvPath)
		if err != nil {
			return err
		}
		werr := res.Metrics.WriteCSV(w)
		if err := closeFn(); werr == nil {
			werr = err
		}
		if werr != nil {
			return fmt.Errorf("metrics-csv: %w", werr)
		}
	}
	return nil
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

// openOut opens path for writing; "-" selects stdout (whose close is a
// no-op so repeated exporters can share it).
func openOut(path string) (*os.File, func() error, error) {
	if path == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// runChaos drives a deterministic fault campaign through the functional
// Path ORAM (MAC integrity on) and reports what was injected, what each
// mechanism detected, and what recovery cost. The same seed reproduces
// the identical campaign; eviction and encryptor select functional
// backends ("" = defaults).
func runChaos(seed uint64, eviction, encryptor string) {
	cfg := doram.DefaultORAMConfig()
	cfg.Levels = 12 // 16 MB-scale tree: quick, still thousands of buckets
	cfg.Seed = seed
	cfg.Eviction = eviction
	cfg.Encryptor = encryptor
	cfg.Faults = &doram.FaultPlan{
		Seed:               seed,
		BitFlips:           12,
		Replays:            8,
		DroppedWrites:      1,
		GarbageBuckets:     4,
		PersistentFraction: 0.1,
		Horizon:            40_000, // ~2000 accesses' worth of bucket operations
	}
	o, err := doram.NewORAM(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doramsim: %v\n", err)
		os.Exit(1)
	}

	const accesses = 2000
	var alarm error
	done := 0
	for i := 0; i < accesses; i++ {
		addr := uint64(i % 512)
		if i%2 == 0 {
			err = o.Write(addr, []byte{byte(i), byte(i >> 8)})
		} else {
			_, err = o.Read(addr)
		}
		if err != nil {
			alarm = err
			break
		}
		done++
	}

	r := o.FaultReport()
	fmt.Printf("chaos campaign: seed=%d accesses=%d/%d levels=%d mac=on\n",
		seed, done, accesses, cfg.Levels)
	fmt.Printf("  injected faults:          %d (bit flips %d, replays %d, dropped writes %d, garbage %d)\n",
		r.Injected(), r.BitFlips, r.Replays, r.DroppedWrites, r.GarbageBuckets)
	fmt.Printf("  persistent / deferred:    %d / %d\n", r.Persistent, r.Deferred)
	fmt.Printf("  recovered by re-read:     %d bucket retries, %d path retries\n",
		r.Retries, r.PathRetries)
	fmt.Printf("  recovery overhead:        %d cycles\n", r.RecoveryCycles)
	fmt.Printf("  stash pressure evictions: %d\n", r.PressureEvictions)
	fmt.Printf("  security alarms:          %d\n", r.Alarms)
	if alarm != nil {
		fmt.Printf("  campaign halted:          %v\n", alarm)
		if r.Persistent == 0 && r.DroppedWrites == 0 {
			fmt.Println("  verdict: UNEXPECTED — alarm without persistent tampering")
			os.Exit(1)
		}
		fmt.Println("  verdict: OK — persistent tampering detected and refused")
		return
	}
	if transient := r.Injected() - r.Persistent - r.DroppedWrites; transient > 0 && r.Retries+r.PathRetries == 0 {
		fmt.Println("  verdict: UNEXPECTED — faults injected but never detected")
		os.Exit(1)
	}
	fmt.Println("  verdict: OK — all delivered faults detected and healed")
}
