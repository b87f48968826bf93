package doram

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// metricsRun is the fixed configuration every metrics test shares; small
// enough to be fast, d-oram so every subsystem (links, BOB, sub-channels,
// delegator) contributes instruments.
func metricsRun(t *testing.T) *SimResult {
	t.Helper()
	cfg := DefaultSimConfig(SchemeDORAM, "face")
	cfg.TraceLen = 2000
	cfg.Metrics = true
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil || res.Timeline == nil {
		t.Fatal("metrics enabled but no dump/timeline returned")
	}
	return res
}

// goldenSchemes are the schemes whose exact exports are pinned: D-ORAM, the
// Path ORAM baseline it is measured against, and secure memory, whose S-App
// enqueues straight into the controllers beside NS traffic.
var goldenSchemes = []Scheme{SchemeDORAM, SchemePathORAM, SchemeSecureMemory}

// goldenPath names a scheme's golden file: D-ORAM keeps the bare base name,
// every other scheme gets its name as a suffix.
func goldenPath(base string, scheme Scheme) string {
	if scheme != SchemeDORAM {
		base += "_" + string(scheme)
	}
	return filepath.Join("testdata", base+".json")
}

// checkGolden compares got with the golden file, rewriting it first under
// -update.
func checkGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output diverged from %s (run with -update if intentional); got %d bytes, want %d",
			golden, len(got), len(want))
	}
}

// TestMetricsGolden pins the exact metrics-json output of a fixed run per
// golden scheme — the same bytes `doramsim -metrics-json` would write.
// Regenerate with `go test -run TestMetricsGolden -update .` after
// intentional changes.
func TestMetricsGolden(t *testing.T) {
	for _, scheme := range goldenSchemes {
		t.Run(string(scheme), func(t *testing.T) {
			cfg := DefaultSimConfig(scheme, "face")
			cfg.TraceLen = 2000
			cfg.Metrics = true
			res, err := Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := res.Metrics.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, goldenPath("metrics_golden", scheme), buf.Bytes())
		})
	}
}

// TestMetricsJSONRoundTrip checks the exported dump survives
// encoding/json without loss.
func TestMetricsJSONRoundTrip(t *testing.T) {
	res := metricsRun(t)
	var buf bytes.Buffer
	if err := res.Metrics.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back MetricsDump
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if len(back.Counters) != len(res.Metrics.Counters) {
		t.Fatalf("counters: got %d, want %d", len(back.Counters), len(res.Metrics.Counters))
	}
	for name, v := range res.Metrics.Counters {
		if back.Counters[name] != v {
			t.Fatalf("counter %s: got %d, want %d", name, back.Counters[name], v)
		}
	}
	if back.Timeline == nil || len(back.Timeline.Epochs) != len(res.Timeline.Epochs) ||
		len(back.Timeline.Series) != len(res.Timeline.Series) {
		t.Fatal("timeline shape lost in round trip")
	}
}

// TestTimelineInvariants checks structural properties every run's timeline
// must satisfy: strictly increasing epoch cycles, utilizations in [0,1],
// and stash occupancy within the delegator's configured bound.
func TestTimelineInvariants(t *testing.T) {
	res := metricsRun(t)
	tl := res.Timeline

	if tl.EpochCycles != DefaultMetricsEpochCycles {
		t.Fatalf("epoch = %d, want default %d", tl.EpochCycles, DefaultMetricsEpochCycles)
	}
	if len(tl.Epochs) == 0 {
		t.Fatal("no epochs sampled")
	}
	var last uint64
	for i, e := range tl.Epochs {
		if i > 0 && e.Cycle <= last {
			t.Fatalf("epoch cycles not strictly increasing: %d after %d", e.Cycle, last)
		}
		last = e.Cycle
		if len(e.Values) != len(tl.Series) {
			t.Fatalf("epoch %d has %d values for %d series", i, len(e.Values), len(tl.Series))
		}
	}

	for i, name := range tl.Series {
		isUtil := strings.HasSuffix(name, "util")
		for _, e := range tl.Epochs {
			v := e.Value(i)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("series %s: non-finite sample %v", name, v)
			}
			if isUtil && (v < 0 || v > 1) {
				t.Fatalf("series %s: utilization %v out of [0,1]", name, v)
			}
		}
	}

	// Stash occupancy never exceeds the delegator's structural capacity.
	checked := false
	for i, name := range tl.Series {
		if !strings.HasSuffix(name, ".stash_blocks") {
			continue
		}
		capName := strings.TrimSuffix(name, "stash_blocks") + "stash_capacity"
		capacity, ok := res.Metrics.Counters[capName]
		if !ok {
			t.Fatalf("series %s has no %s counter", name, capName)
		}
		checked = true
		for _, e := range tl.Epochs {
			if v := e.Value(i); v < 0 || v > float64(capacity) {
				t.Fatalf("series %s: occupancy %v outside [0,%d]", name, v, capacity)
			}
		}
	}
	if !checked {
		t.Fatal("no stash_blocks series found on a d-oram run")
	}
}

// TestTimelineIntegralMatchesAggregates ties the sampled series back to
// the scalar results: integrating each channel's per-epoch bus utilization
// against its cumulative memory-cycle series must recover the channel's
// total data-bus busy cycles (within 1%, per the design; exactly, by
// construction of the interval gauges).
func TestTimelineIntegralMatchesAggregates(t *testing.T) {
	res := metricsRun(t)
	tl := res.Timeline
	for ch, wantBusy := range res.ChannelDataBusBusy {
		prefix := "chan" + string(rune('0'+ch)) + "."
		ui := tl.SeriesIndex(prefix + "bus_util")
		wi := tl.SeriesIndex(prefix + "mem_cycles")
		if ui < 0 || wi < 0 {
			t.Fatalf("channel %d missing bus_util/mem_cycles series", ch)
		}
		got := tl.Integrate(ui, wi)
		if wantBusy == 0 {
			if got != 0 {
				t.Fatalf("channel %d: integral %v on an idle channel", ch, got)
			}
			continue
		}
		if rel := math.Abs(got-float64(wantBusy)) / float64(wantBusy); rel > 0.01 {
			t.Fatalf("channel %d: integral %v vs busy cycles %d (%.2f%% off)",
				ch, got, wantBusy, rel*100)
		}
		// The registry's own cumulative counter agrees with the Results
		// aggregate the integral was checked against.
		if c := res.Metrics.Counters[prefix+"bus_busy_cycles"]; c != wantBusy {
			t.Fatalf("channel %d: counter %d vs results %d", ch, c, wantBusy)
		}
	}
}

// TestMetricsDisabledByDefault pins the default-off contract.
func TestMetricsDisabledByDefault(t *testing.T) {
	cfg := DefaultSimConfig(SchemeDORAM, "face")
	cfg.TraceLen = 500
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics != nil || res.Timeline != nil {
		t.Fatal("metrics returned without being enabled")
	}
}
