// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed time, checks the workload's output, and prints one
// JSON line: the end-to-end metrics, or with -trace 1 the per-layer
// metrics of a separate traced run. The metric names and units come from
// BENCHMARK.json at the repository root; README.md explains each workload
// and metric.
//
// Run it through the wrapper from the repository root:
//
//	python3 perfbench/run.py --workload corun-single --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// env is what every workload receives: its seed and measuring time.
type env struct {
	seed    uint64
	seconds time.Duration
}

// workload runs one named traffic mix. measure fills the end-to-end
// metrics with tracing off; trace fills the per-layer metrics.
type workload struct {
	measure func(env) (*report, error)
	trace   func(env) (*report, error)
}

var workloads = map[string]workload{
	"fig9-sweep":    {measure: measureFig9, trace: traceFig9},
	"corun-single":  {measure: measureCorun, trace: traceCorun},
	"serve-cluster": {measure: measureServe, trace: traceServe},
	"oram-store":    {measure: measureORAMStore, trace: traceORAMStore},
}

// report is one run's outcome: operation counts, failed output checks and
// the metric values by name.
type report struct {
	attempted int64
	failed    int64
	problems  []string
	metrics   map[string]float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// fail records a failed output check; the run then reports correct=false.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// failOps records a failed output check that makes n operations' output
// wrong, and counts them as failed (at most every attempted operation).
func (r *report) failOps(n int64, format string, args ...any) {
	r.fail(format, args...)
	r.failed = min(r.attempted, r.failed+n)
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkDef struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "workload seed; equal seeds give equal inputs")
	seconds := flag.Float64("seconds", 10, "measuring time in seconds")
	traced := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fatalf("-seconds must be positive and -trace 0 or 1")
	}
	def, err := loadDef("BENCHMARK.json")
	if err != nil {
		fatalf("%v", err)
	}
	e := env{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second))}
	run, want := w.measure, def.EndToEnd
	if *traced == 1 {
		run, want = w.trace, def.PerLayer
	}
	rep, err := run(e)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	if rep.attempted < 1 {
		fatalf("%s: no operation was attempted", *name)
	}
	failRatio := float64(rep.failed) / float64(rep.attempted)
	if *traced == 0 {
		rep.metrics["ok_ratio"] = 1 - failRatio
		rep.metrics["peak_rss_mb"] = peakRSSMB()
	} else {
		rep.metrics["fail_ratio"] = failRatio
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", *name, p)
	}
	out := result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]value{},
	}
	for _, m := range want {
		v, ok := rep.metrics[m.Name]
		if !ok {
			fatalf("%s: metric %s was not measured", *name, m.Name)
		}
		out.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func loadDef(path string) (*benchmarkDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark definition: %w", err)
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &def, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
