package doram

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"doram/internal/evtrace"
)

// traceRun is the fixed configuration the trace tests share: d-oram so the
// full pipeline (engine, SD, link, BOB, sub-channel MCs) contributes spans,
// with the exporters' ring so the spans are kept.
func traceRun(t *testing.T) *SimResult {
	t.Helper()
	cfg := DefaultSimConfig(SchemeDORAM, "face")
	cfg.TraceLen = 2000
	cfg.Trace = true
	cfg.TraceEventLimit = evtrace.DefaultLimit
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.LatencyBreakdown == nil {
		t.Fatal("tracing enabled but no trace/breakdown returned")
	}
	return res
}

// TestTraceGolden pins the exact Chrome trace-event JSON of a fixed bounded
// run per golden scheme — the same bytes `doramsim -trace-json` would
// write. The small ring limit also exercises oldest-first eviction.
// Regenerate with `go test -run TestTraceGolden -update .` after
// intentional changes.
func TestTraceGolden(t *testing.T) {
	for _, scheme := range goldenSchemes {
		t.Run(string(scheme), func(t *testing.T) {
			cfg := DefaultSimConfig(scheme, "face")
			cfg.TraceLen = 200
			cfg.Trace = true
			cfg.TraceSample = 4
			if scheme == SchemeSecureMemory {
				// No ORAM spans: sample more NS requests so the ring still
				// overflows.
				cfg.TraceSample = 2
			}
			cfg.TraceEventLimit = 1200
			res, err := Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Trace.Dropped == 0 {
				t.Fatal("golden config expected to overflow its ring")
			}
			var buf bytes.Buffer
			if err := res.Trace.WriteChrome(&buf); err != nil {
				t.Fatal(err)
			}
			golden := goldenPath("trace_golden", scheme)
			checkGolden(t, golden, buf.Bytes())
			if err := ValidateChromeTrace(buf.Bytes()); err != nil {
				t.Fatalf("%s invalid: %v", golden, err)
			}
		})
	}
}

// TestTraceChromeValid runs the exported trace of every scheme through the
// nesting/timestamp validator — the invariant doramsim -trace-validate
// gates on in CI.
func TestTraceChromeValid(t *testing.T) {
	for _, scheme := range []Scheme{SchemeDORAM, SchemePathORAM, SchemeNonSecure} {
		cfg := DefaultSimConfig(scheme, "face")
		cfg.TraceLen = 1000
		cfg.Trace = true
		cfg.TraceEventLimit = evtrace.DefaultLimit
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if err := res.Trace.Validate(); err != nil {
			t.Fatalf("%s: trace invariants: %v", scheme, err)
		}
		var buf bytes.Buffer
		if err := res.Trace.WriteChrome(&buf); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if err := ValidateChromeTrace(buf.Bytes()); err != nil {
			t.Fatalf("%s: chrome validation: %v", scheme, err)
		}
	}
}

// TestTraceBreakdownSums ties the attribution report to end-to-end latency:
// the stage partitions telescope, so per kind the stage means must sum to
// the total mean (float rounding only), and every kind must have seen work.
func TestTraceBreakdownSums(t *testing.T) {
	res := traceRun(t)
	kinds := make(map[string]bool)
	for _, k := range res.LatencyBreakdown.Kinds {
		kinds[k.Kind] = true
		if k.Total.Count == 0 {
			t.Fatalf("kind %s: empty total", k.Kind)
		}
		var sum float64
		for _, st := range k.Stages {
			if st.Count != k.Total.Count {
				t.Fatalf("kind %s stage %s: count %d != total count %d",
					k.Kind, st.Stage, st.Count, k.Total.Count)
			}
			sum += st.Mean
		}
		if rel := math.Abs(sum-k.Total.Mean) / k.Total.Mean; rel > 1e-9 {
			t.Fatalf("kind %s: stage means sum %v != end-to-end mean %v",
				k.Kind, sum, k.Total.Mean)
		}
	}
	for _, want := range []string{"oram", "ns_read", "ns_write"} {
		if !kinds[want] {
			t.Fatalf("attribution report missing kind %s (have %v)", want, kinds)
		}
	}
	// Every completed ORAM access lands in the report regardless of event
	// sampling; at most the final in-flight access is missing.
	for _, k := range res.LatencyBreakdown.Kinds {
		if k.Kind == "oram" {
			if k.Total.Count == 0 || k.Total.Count > res.ORAMAccesses ||
				res.ORAMAccesses-k.Total.Count > 2 {
				t.Fatalf("oram breakdown count %d vs %d accesses", k.Total.Count, res.ORAMAccesses)
			}
		}
	}
	if res.Trace.Violations != 0 {
		t.Fatalf("run recorded %d trace invariant violations", res.Trace.Violations)
	}
}

// TestTraceDORAMTrackPlacement pins the paper's delegation claim in the
// trace itself (§III): with no tree split, every ORAM block transaction
// executes on the secure channel's BOB-local sub-channel tracks, and the
// only ORAM activity crossing the serial link is packet transfers.
func TestTraceDORAMTrackPlacement(t *testing.T) {
	res := traceRun(t)
	var buf bytes.Buffer
	if err := res.Trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			TID  int            `json:"tid"`
			Cat  string         `json:"cat"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	tracks := make(map[int]string)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			tracks[ev.TID] = ev.Args["name"].(string)
		}
	}
	var oramBlocks, linkPackets int
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		track := tracks[ev.TID]
		onMemory := strings.HasSuffix(track, ".mc") || strings.HasSuffix(track, ".dram")
		if ev.Cat == "oram" && onMemory {
			oramBlocks++
			if !strings.HasPrefix(track, "chan0.sub") {
				t.Fatalf("ORAM block transaction escaped the secure channel: track %s", track)
			}
		}
		if strings.Contains(track, ".link.") {
			if ev.Name != "packet" {
				t.Fatalf("non-packet span %q on link track %s", ev.Name, track)
			}
			if strings.HasPrefix(track, "chan0.") {
				linkPackets++
			}
		}
	}
	if oramBlocks == 0 {
		t.Fatal("no ORAM block transactions traced")
	}
	if linkPackets == 0 {
		t.Fatal("no packets traced on the secure channel's link")
	}
}

// TestTraceTopSlowest checks the -trace-top report source: bounded size,
// slowest first, and per-entry stages summing to the entry total.
func TestTraceTopSlowest(t *testing.T) {
	cfg := DefaultSimConfig(SchemeDORAM, "face")
	cfg.TraceLen = 2000
	cfg.TraceTopN = 5 // implies tracing
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	top := res.Trace.Top
	if len(top) == 0 || len(top) > 5 {
		t.Fatalf("got %d top accesses, want 1..5", len(top))
	}
	for i, a := range top {
		if i > 0 && a.Total > top[i-1].Total {
			t.Fatalf("top accesses not slowest-first: %d after %d", a.Total, top[i-1].Total)
		}
		var sum uint64
		for _, st := range a.Stages {
			sum += st.Dur
		}
		if sum != a.Total {
			t.Fatalf("top access %d: stages sum %d != total %d", i, sum, a.Total)
		}
	}
}

// TestTraceSamplingBoundsEvents checks that sampling thins the event ring
// without touching the attribution report, which stays population-wide.
func TestTraceSamplingBoundsEvents(t *testing.T) {
	run := func(sample uint64) *SimResult {
		cfg := DefaultSimConfig(SchemeDORAM, "face")
		cfg.TraceLen = 1000
		cfg.Trace = true
		cfg.TraceEventLimit = evtrace.DefaultLimit
		cfg.TraceSample = sample
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full, thin := run(1), run(16)
	if len(thin.Trace.Events) >= len(full.Trace.Events) {
		t.Fatalf("sampling did not thin events: %d vs %d",
			len(thin.Trace.Events), len(full.Trace.Events))
	}
	if len(full.LatencyBreakdown.Kinds) != len(thin.LatencyBreakdown.Kinds) {
		t.Fatal("sampling changed the report's kind set")
	}
	for i, k := range full.LatencyBreakdown.Kinds {
		tk := thin.LatencyBreakdown.Kinds[i]
		if k.Kind != tk.Kind || k.Total.Count != tk.Total.Count || k.Total.Mean != tk.Total.Mean {
			t.Fatalf("kind %s: report diverged under sampling (%d/%v vs %d/%v)",
				k.Kind, k.Total.Count, k.Total.Mean, tk.Total.Count, tk.Total.Mean)
		}
	}
}

// TestTraceDisabledByDefault pins the default-off contract.
func TestTraceDisabledByDefault(t *testing.T) {
	cfg := DefaultSimConfig(SchemeDORAM, "face")
	cfg.TraceLen = 500
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil || res.LatencyBreakdown != nil {
		t.Fatal("trace returned without being enabled")
	}
}

// TestTraceRingShapesNothingElse: the event ring is an export buffer and
// nothing more. Across schemes and the knobs that change what a trace
// records, a ringless traced run and a ringed one return the same
// attribution (report, slowest accesses, every stage-histogram bucket) and
// the same results, and the ringless run keeps and drops no events.
func TestTraceRingShapesNothingElse(t *testing.T) {
	settings := map[string]func(*SimConfig){
		"default":   func(*SimConfig) {},
		"sample16":  func(c *SimConfig) { c.TraceSample = 16 },
		"oram-only": func(c *SimConfig) { c.TraceOramOnly = true },
		"split2":    func(c *SimConfig) { c.SplitK = 2 },
		"ddr4":      func(c *SimConfig) { c.DDR4 = true },
	}
	for _, scheme := range []Scheme{SchemeDORAM, SchemePathORAM} {
		for name, set := range settings {
			if name == "split2" && scheme != SchemeDORAM {
				continue // tree split is D-ORAM only
			}
			scheme, set := scheme, set
			t.Run(string(scheme)+"/"+name, func(t *testing.T) {
				t.Parallel()
				run := func(limit int) *SimResult {
					cfg := DefaultSimConfig(scheme, "face")
					cfg.TraceLen = 800
					cfg.Trace = true
					cfg.TraceEventLimit = limit
					set(&cfg)
					res, err := Simulate(cfg)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				ringless, ringed := run(0), run(evtrace.DefaultLimit)
				assertSameAttribution(t, ringless, ringed)
				if ringless.Trace.Events != nil || ringless.Trace.Dropped != 0 {
					t.Fatalf("ringless run kept %d events and dropped %d",
						len(ringless.Trace.Events), ringless.Trace.Dropped)
				}
				if len(ringed.Trace.Events) == 0 {
					t.Fatal("ringed run kept no events")
				}
			})
		}
	}
}

// assertSameAttribution fails unless two traced runs agree on everything
// but their event rings: the attribution report and slowest accesses, each
// stage histogram bucket for bucket, and the full result, both as served
// JSON and field by field.
func assertSameAttribution(t *testing.T, a, b *SimResult) {
	t.Helper()
	if !bytes.Equal(mustJSON(t, a.LatencyBreakdown), mustJSON(t, b.LatencyBreakdown)) {
		t.Fatal("LatencyBreakdown differs")
	}
	if !reflect.DeepEqual(a.Trace.Top, b.Trace.Top) {
		t.Fatal("slowest-access list differs")
	}
	if a.Trace.Violations != b.Trace.Violations {
		t.Fatalf("violations %d vs %d", a.Trace.Violations, b.Trace.Violations)
	}
	if len(a.Trace.StageHists) == 0 || len(a.Trace.StageHists) != len(b.Trace.StageHists) {
		t.Fatalf("stage histogram sets: %d vs %d", len(a.Trace.StageHists), len(b.Trace.StageHists))
	}
	for key, ha := range a.Trace.StageHists {
		hb := b.Trace.StageHists[key]
		if hb == nil || ha.NumBuckets() != hb.NumBuckets() || ha.Latency() != hb.Latency() {
			t.Fatalf("stage histogram %s differs", key)
		}
		for i := 0; i < ha.NumBuckets(); i++ {
			if ha.Bucket(i) != hb.Bucket(i) {
				t.Fatalf("stage histogram %s bucket %d: %d vs %d", key, i, ha.Bucket(i), hb.Bucket(i))
			}
		}
	}
	if da, db := sha256.Sum256(encodeResult(t, a)), sha256.Sum256(encodeResult(t, b)); da != db {
		t.Fatalf("result digest %x vs %x", da[:6], db[:6])
	}
	ca, cb := *a, *b
	ca.Trace, cb.Trace = nil, nil
	if !reflect.DeepEqual(ca, cb) {
		t.Fatal("results differ outside the trace")
	}
}

// TestTraceRinglessAllocs guards the serving path's cost: a traced run
// without an event ring — every traced job spec — allocates like an
// untraced run, not like one holding ~6 MB of span events. The minimum of
// three runs screens out allocations by concurrently finishing tests.
func TestTraceRinglessAllocs(t *testing.T) {
	cfg := DefaultSimConfig(SchemeDORAM, "face")
	cfg.TraceLen = 600
	cfg.Trace = true
	const limit = 1 << 20
	best := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := Simulate(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d < best {
			best = d
		}
	}
	if best >= limit {
		t.Fatalf("ringless traced run allocated %d KB, want < %d KB", best>>10, limit>>10)
	}
	t.Logf("ringless traced run allocated %d KB", best>>10)
}
