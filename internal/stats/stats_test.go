package stats

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("value = %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("reset failed")
	}
}

func TestLatencyAggregates(t *testing.T) {
	var l Latency
	for _, v := range []uint64{5, 1, 9, 3} {
		l.Observe(v)
	}
	if l.Count() != 4 || l.Sum() != 18 || l.Min() != 1 || l.Max() != 9 {
		t.Fatalf("aggregates: %s", l.String())
	}
	if l.Mean() != 4.5 {
		t.Fatalf("mean = %v", l.Mean())
	}
	l.Reset()
	if l.Count() != 0 || l.Mean() != 0 {
		t.Fatal("reset failed")
	}
}

func TestLatencyMerge(t *testing.T) {
	var a, b Latency
	a.Observe(2)
	a.Observe(10)
	b.Observe(1)
	b.Observe(4)
	a.MergeFrom(b)
	if a.Count() != 4 || a.Min() != 1 || a.Max() != 10 || a.Sum() != 17 {
		t.Fatalf("merged: %s", a.String())
	}
	// Merging empty is a no-op; merging into empty copies.
	var e Latency
	a.MergeFrom(e)
	if a.Count() != 4 {
		t.Fatal("merge with empty changed state")
	}
	e.MergeFrom(a)
	if e.Count() != 4 || e.Min() != 1 {
		t.Fatal("merge into empty failed")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]uint64{10, 100, 1000})
	for _, v := range []uint64{5, 10, 11, 99, 5000} {
		h.Observe(v)
	}
	if h.NumBuckets() != 4 {
		t.Fatalf("buckets = %d", h.NumBuckets())
	}
	want := []uint64{2, 2, 0, 1}
	for i, w := range want {
		if h.Bucket(i) != w {
			t.Fatalf("bucket %d = %d, want %d", i, h.Bucket(i), w)
		}
	}
	if lat := h.Latency(); lat.Count() != 5 {
		t.Fatal("scalar aggregate missing samples")
	}
	if p := h.Percentile(50); p != 10 && p != 100 {
		t.Fatalf("p50 = %d", p)
	}
	if p := h.Percentile(100); p != 5000 {
		t.Fatalf("p100 = %d, want observed max", p)
	}
}

func TestHistogramPercentileTable(t *testing.T) {
	multi := NewHistogram([]uint64{10, 100, 1000})
	for _, v := range []uint64{5, 10, 11, 99, 5000} {
		multi.Observe(v)
	}
	single := NewHistogram([]uint64{10, 100})
	single.Observe(42)
	overflow := NewHistogram([]uint64{10})
	for _, v := range []uint64{500, 900} {
		overflow.Observe(v)
	}
	empty := NewHistogram([]uint64{10})

	cases := []struct {
		name string
		h    *Histogram
		p    float64
		want uint64
	}{
		{"p0 clamps to observed min", multi, 0, 5},
		{"negative p clamps to observed min", multi, -7, 5},
		{"p50 mid-bucket bound", multi, 50, 100},
		{"p100 reports observed max", multi, 100, 5000},
		{"p>100 behaves as p100", multi, 250, 5000},
		{"tiny p still counts one sample", multi, 1e-9, 10},
		{"single sample p0", single, 0, 42},
		{"single sample p50", single, 50, 100},
		{"single sample p100 bounds above", single, 100, 100},
		{"overflow-only p50", overflow, 50, 900},
		{"overflow-only p0", overflow, 0, 500},
		{"empty histogram", empty, 50, 0},
		{"empty histogram p0", empty, 0, 0},
	}
	for _, tc := range cases {
		if got := tc.h.Percentile(tc.p); got != tc.want {
			t.Errorf("%s: Percentile(%v) = %d, want %d", tc.name, tc.p, got, tc.want)
		}
	}
}

func TestHistogramSummaryTable(t *testing.T) {
	multi := NewHistogram([]uint64{10, 100, 1000})
	for _, v := range []uint64{5, 10, 11, 99, 5000} {
		multi.Observe(v)
	}
	single := NewHistogram([]uint64{10, 100})
	single.Observe(42)
	overflow := NewHistogram([]uint64{10})
	for _, v := range []uint64{500, 900} {
		overflow.Observe(v)
	}
	uniform := NewHistogram([]uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	for v := uint64(1); v <= 100; v++ {
		uniform.Observe(v % 10)
	}
	empty := NewHistogram([]uint64{10})

	cases := []struct {
		name string
		h    *Histogram
		want Summary
	}{
		{"multi-bucket", multi, Summary{Count: 5, Mean: 1025, P50: 100, P95: 5000, P99: 5000}},
		{"single sample", single, Summary{Count: 1, Mean: 42, P50: 100, P95: 100, P99: 100}},
		{"overflow only", overflow, Summary{Count: 2, Mean: 700, P50: 900, P95: 900, P99: 900}},
		{"uniform 0..9", uniform, Summary{Count: 100, Mean: 4.5, P50: 4, P95: 9, P99: 9}},
		{"empty", empty, Summary{}},
	}
	for _, tc := range cases {
		got := tc.h.Summary()
		if got != tc.want {
			t.Errorf("%s: Summary() = %+v, want %+v", tc.name, got, tc.want)
		}
		// Consistency with the one-at-a-time Percentile path.
		if got.P50 != tc.h.Percentile(50) || got.P95 != tc.h.Percentile(95) || got.P99 != tc.h.Percentile(99) {
			t.Errorf("%s: Summary disagrees with Percentile: %+v", tc.name, got)
		}
	}
}

func TestPropertySummaryMatchesPercentile(t *testing.T) {
	f := func(vals []uint16) bool {
		h := NewHistogram([]uint64{100, 1000, 10000})
		for _, v := range vals {
			h.Observe(uint64(v))
		}
		s := h.Summary()
		lat := h.Latency()
		return s.Count == uint64(len(vals)) &&
			s.P50 == h.Percentile(50) &&
			s.P95 == h.Percentile(95) &&
			s.P99 == h.Percentile(99) &&
			s.Mean == lat.Mean()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBoundsCopy(t *testing.T) {
	h := NewHistogram([]uint64{10, 100})
	b := h.Bounds()
	b[0] = 99
	if h.Bounds()[0] != 10 {
		t.Fatal("Bounds returned internal slice")
	}
}

func TestPowerOfTwoBounds(t *testing.T) {
	b := PowerOfTwoBounds(28)
	if len(b) != 28 || b[0] != 1 || b[27] != 1<<27 {
		t.Fatalf("bounds = %v, want 1..2^27", b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] != 2*b[i-1] {
			t.Fatalf("bound %d = %d, want twice %d", i, b[i], b[i-1])
		}
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for i, bounds := range [][]uint64{{}, {5, 5}, {9, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: bad bounds accepted", i)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestUtilization(t *testing.T) {
	var u Utilization
	if u.Value() != 0 {
		t.Fatal("empty utilization nonzero")
	}
	u.AddBusy(30)
	u.AddTotal(100)
	if u.Value() != 0.3 || u.Busy() != 30 {
		t.Fatalf("value = %v busy = %d", u.Value(), u.Busy())
	}
}

func TestGeoMeanAndMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Fatalf("geomean = %v, want 2", g)
	}
	if g := GeoMean([]float64{0, -1}); g != 0 {
		t.Fatalf("geomean of non-positives = %v, want 0", g)
	}
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("mean = %v", m)
	}
	if m := Mean(nil); m != 0 {
		t.Fatalf("mean of empty = %v", m)
	}
}

func TestPropertyLatencyMeanBounded(t *testing.T) {
	f := func(vals []uint16) bool {
		var l Latency
		for _, v := range vals {
			l.Observe(uint64(v))
		}
		if len(vals) == 0 {
			return l.Mean() == 0
		}
		return float64(l.Min()) <= l.Mean() && l.Mean() <= float64(l.Max())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyHistogramConservation(t *testing.T) {
	f := func(vals []uint16) bool {
		h := NewHistogram([]uint64{100, 1000, 10000})
		var sum uint64
		for _, v := range vals {
			h.Observe(uint64(v))
		}
		for i := 0; i < h.NumBuckets(); i++ {
			sum += h.Bucket(i)
		}
		lat := h.Latency()
		return sum == uint64(len(vals)) && lat.Count() == uint64(len(vals))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLatencySumSaturation: sums past MaxUint64 clamp (sticky) instead of
// wrapping to a plausible-looking garbage mean — the sustained-load case
// of 1e7+ large samples.
func TestLatencySumSaturation(t *testing.T) {
	var l Latency
	l.Observe(math.MaxUint64)
	if l.Saturated() {
		t.Fatal("one sample should not saturate")
	}
	l.Observe(10)
	if !l.Saturated() {
		t.Fatal("sum past MaxUint64 must saturate")
	}
	if l.Sum() != math.MaxUint64 {
		t.Fatalf("saturated sum = %d, want MaxUint64", l.Sum())
	}
	if l.Count() != 2 || l.Max() != math.MaxUint64 || l.Min() != 10 {
		t.Fatalf("count/min/max wrong: %s", l.String())
	}
	l.Observe(1) // sticky
	if l.Sum() != math.MaxUint64 || l.Count() != 3 {
		t.Fatalf("saturation must be sticky: sum=%d count=%d", l.Sum(), l.Count())
	}

	// Saturation propagates through a merge: from a saturated source, and
	// from a sum that overflows while merging.
	var m Latency
	m.Observe(7)
	m.MergeFrom(l)
	if !m.Saturated() || m.Sum() != math.MaxUint64 || m.Count() != 4 {
		t.Fatalf("MergeFrom lost saturation: %s", m.String())
	}
	var f Latency
	f.Observe(math.MaxUint64 - 3)
	var g Latency
	g.Observe(1000)
	f.MergeFrom(g)
	if !f.Saturated() || f.Sum() != math.MaxUint64 {
		t.Fatalf("MergeFrom overflow not saturated: %s", f.String())
	}
}

// TestPercentileHugeCounts grows a histogram past 2^53 samples by repeated
// doubling and checks the percentile rank math neither overflows nor falls
// off the end of the buckets (the float64 rank can exceed the population
// up there; it must clamp).
func TestPercentileHugeCounts(t *testing.T) {
	h := NewHistogram([]uint64{10, 100, 1000})
	for _, v := range []uint64{5, 50, 500, 5000} {
		h.Observe(v)
	}
	// Double via merge with a snapshot each round: 4 * 2^54 > 2^53 samples
	// (still well under 2^64, so the counters themselves cannot wrap).
	for i := 0; i < 54; i++ {
		snap := NewHistogram([]uint64{10, 100, 1000})
		if err := snap.MergeFrom(h); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if err := h.MergeFrom(snap); err != nil {
			t.Fatalf("merge %d: %v", i, err)
		}
	}
	lat := h.Latency()
	if lat.Count() <= 1<<53 {
		t.Fatalf("count = %d, want > 2^53", lat.Count())
	}
	if got := h.Percentile(100); got != 5000 {
		t.Fatalf("p100 = %d, want observed max 5000", got)
	}
	if got := h.Percentile(50); got != 100 {
		t.Fatalf("p50 = %d, want bucket bound 100", got)
	}
	s := h.Summary()
	if s.P50 != 100 || s.P99 != 5000 {
		t.Fatalf("summary = %+v, want P50 100, P99 5000", s)
	}
	satLat := h.Latency()
	if !satLat.Saturated() {
		t.Fatal("doubling sums past MaxUint64 should have saturated")
	}
}

// TestQuantile: the exact nearest-rank rule over unit-weight samples.
func TestQuantile(t *testing.T) {
	if got := Quantile(nil, 50); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	if got := Quantile([]Sample{{Value: 3, Weight: 0}}, 50); got != 0 {
		t.Fatalf("zero-weight quantile = %v, want 0", got)
	}
	xs := unweighted(9, 1, 7, 3, 5) // sorted: 1 3 5 7 9
	cases := []struct {
		p    float64
		want float64
	}{
		{-5, 1}, {0, 1}, {10, 1}, {20, 1}, {40, 3}, {50, 5}, {60, 5},
		{80, 7}, {90, 9}, {100, 9}, {250, 9},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.p); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, unweighted(9, 1, 7, 3, 5)) {
		t.Fatal("Quantile must not mutate its input")
	}
}

func unweighted(vs ...float64) []Sample {
	out := make([]Sample, len(vs))
	for i, v := range vs {
		out[i] = Sample{Value: v, Weight: 1}
	}
	return out
}
