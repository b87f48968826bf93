package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestNilRegistryIsInert pins the package invariant: a nil *Registry and
// every instrument it hands out are valid no-ops, so disabled runs never
// branch on an "enabled" flag.
func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	c := r.SyncCounter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 || c.Name() != "" {
		t.Fatal("nil counter not inert")
	}
	h := r.Histogram("h", []uint64{1, 2})
	h.Observe(7)
	if h.Stats() != nil {
		t.Fatal("nil histogram exposes state")
	}
	r.CounterFunc("cf", func() uint64 { return 1 })
	r.Gauge("g", func(uint64) float64 { return 1 })
	r.StartTimeline(16)
	r.Sample(16)
	if r.Timeline() != nil || r.Dump() != nil || r.CounterValues() != nil || r.SeriesNames() != nil {
		t.Fatal("nil registry returned state")
	}
}

func TestRegistryCountersAndFuncs(t *testing.T) {
	r := New()
	c := r.SyncCounter("events")
	c.Inc()
	c.Add(2)
	ext := uint64(40)
	r.CounterFunc("bridged", func() uint64 { return ext })
	ext = 41
	vals := r.CounterValues()
	if vals["events"] != 3 {
		t.Fatalf("events = %d, want 3", vals["events"])
	}
	if vals["bridged"] != 41 {
		t.Fatalf("bridged = %d, want read-at-dump-time 41", vals["bridged"])
	}
}

func TestRegistryDuplicateNamePanics(t *testing.T) {
	r := New()
	r.SyncCounter("dup")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration accepted")
		}
	}()
	r.Gauge("dup", func(uint64) float64 { return 0 })
}

func TestTimelineSampling(t *testing.T) {
	r := New()
	depth := 0
	r.Gauge("q", Level(func() int { return depth }))
	r.StartTimeline(100)

	depth = 3
	r.Sample(100)
	depth = 5
	r.Sample(200)
	r.Sample(200) // duplicate cycle: dropped
	r.Sample(150) // regression: dropped
	depth = 7
	r.Sample(250) // final partial epoch

	tl := r.Timeline()
	if tl == nil || len(tl.Epochs) != 3 {
		t.Fatalf("epochs = %+v, want 3", tl)
	}
	wantCycles := []uint64{100, 200, 250}
	wantVals := []float64{3, 5, 7}
	for i, e := range tl.Epochs {
		if e.Cycle != wantCycles[i] || e.Value(0) != wantVals[i] {
			t.Fatalf("epoch %d = %+v", i, e)
		}
		if i > 0 && e.Cycle <= tl.Epochs[i-1].Cycle {
			t.Fatal("epochs not strictly increasing")
		}
	}
	if got := tl.SeriesIndex("q"); got != 0 {
		t.Fatalf("SeriesIndex(q) = %d", got)
	}
	if got := tl.SeriesIndex("missing"); got != -1 {
		t.Fatalf("SeriesIndex(missing) = %d", got)
	}
}

// TestRatioIntegratesExactly pins the core utilization property: summing
// each interval's ratio times the interval's denominator advance recovers
// the cumulative busy total exactly.
func TestRatioIntegratesExactly(t *testing.T) {
	r := New()
	var busy, total uint64
	r.Gauge("util", Ratio(func() (uint64, uint64) { return busy, total }))
	r.Gauge("cycles", func(uint64) float64 { return float64(total) })
	r.StartTimeline(10)

	steps := []struct{ b, t uint64 }{{3, 10}, {0, 10}, {7, 7}, {5, 20}}
	now := uint64(0)
	for _, s := range steps {
		busy += s.b
		total += s.t
		now += 10
		r.Sample(now)
	}
	tl := r.Timeline()
	got := tl.Integrate(tl.SeriesIndex("util"), tl.SeriesIndex("cycles"))
	if math.Abs(got-float64(busy)) > 1e-9 {
		t.Fatalf("integral = %v, want busy total %d", got, busy)
	}
	// Every interval ratio stays in [0,1] because busy advances at most as
	// fast as total in the steps above.
	for _, e := range tl.Epochs {
		if u := e.Value(0); u < 0 || u > 1 {
			t.Fatalf("utilization %v out of [0,1]", u)
		}
	}
}

func TestBusyRate(t *testing.T) {
	var busy uint64
	g := BusyRate(func() uint64 { return busy })
	busy = 50
	if got := g(100); got != 0.5 {
		t.Fatalf("first interval = %v, want 0.5", got)
	}
	busy = 50 // idle interval
	if got := g(200); got != 0 {
		t.Fatalf("idle interval = %v, want 0", got)
	}
	if got := g(200); got != 0 { // zero elapsed: defined as 0
		t.Fatalf("zero-width interval = %v, want 0", got)
	}
}

func TestDumpJSONRoundTrip(t *testing.T) {
	r := New()
	r.SyncCounter("a").Add(7)
	r.Histogram("lat", []uint64{10, 100}).Observe(42)
	r.Gauge("g", func(uint64) float64 { return 1.5 })
	r.StartTimeline(8)
	r.Sample(8)
	r.Sample(16)

	var buf bytes.Buffer
	if err := r.Dump().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Dump
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if back.Counters["a"] != 7 {
		t.Fatalf("counter lost: %+v", back.Counters)
	}
	hd, ok := back.Histograms["lat"]
	if !ok || hd.Count != 1 || hd.Min != 42 || hd.Max != 42 {
		t.Fatalf("histogram lost: %+v", back.Histograms)
	}
	if len(hd.Counts) != len(hd.Bounds)+1 {
		t.Fatalf("histogram counts/bounds mismatch: %+v", hd)
	}
	if back.Timeline == nil || len(back.Timeline.Epochs) != 2 ||
		back.Timeline.Epochs[1].Cycle != 16 || back.Timeline.Epochs[1].Value(0) != 1.5 {
		t.Fatalf("timeline lost: %+v", back.Timeline)
	}

	// Serialization is deterministic: a second encode is byte-identical.
	var buf2 bytes.Buffer
	if err := r.Dump().WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("dump serialization not deterministic")
	}
}

func TestDumpCSV(t *testing.T) {
	r := New()
	r.Gauge("u", func(uint64) float64 { return 0.25 })
	r.Gauge("q", func(uint64) float64 { return 4 })
	r.StartTimeline(10)
	r.Sample(10)
	r.Sample(20)

	var buf bytes.Buffer
	if err := r.Dump().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want header + 2 rows:\n%s", len(lines), buf.String())
	}
	if lines[0] != "cycle,u,q" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "10,0.25,4" {
		t.Fatalf("row = %q", lines[1])
	}

	// A dump with no timeline still emits a parseable lone header.
	var empty bytes.Buffer
	if err := (&Dump{}).WriteCSV(&empty); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(empty.String()) != "cycle" {
		t.Fatalf("empty csv = %q", empty.String())
	}
}
