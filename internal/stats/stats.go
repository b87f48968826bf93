// Package stats provides lightweight counters and latency aggregates used
// throughout the simulator. All values are accumulated in simulation cycles
// (or plain event counts) and converted to nanoseconds only at reporting
// time by the caller.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Latency accumulates a stream of latency samples, tracking count, sum,
// min and max. It deliberately avoids storing samples so that million-event
// simulations stay cheap; use Histogram when a distribution is needed.
//
// The sum saturates at MaxUint64 instead of wrapping: a sustained-load run
// (10^7+ samples of up to 2^44 cycles each) can legitimately exceed 64 bits,
// and a silently wrapped sum would report a plausible-looking but garbage
// mean. Once saturated (see Saturated), Mean is a lower bound.
type Latency struct {
	count     uint64
	sum       uint64
	min       uint64
	max       uint64
	saturated bool
}

// Observe records one latency sample.
func (l *Latency) Observe(v uint64) {
	if l.count == 0 || v < l.min {
		l.min = v
	}
	if v > l.max {
		l.max = v
	}
	l.count++
	l.addSum(v)
}

// addSum adds v to the running sum, saturating at MaxUint64 (sticky).
func (l *Latency) addSum(v uint64) {
	if l.saturated || l.sum > math.MaxUint64-v {
		l.sum = math.MaxUint64
		l.saturated = true
		return
	}
	l.sum += v
}

// Saturated reports whether the sum clamped at MaxUint64; when true, Sum
// and Mean are lower bounds rather than exact values.
func (l *Latency) Saturated() bool { return l.saturated }

// Count returns the number of samples observed.
func (l *Latency) Count() uint64 { return l.count }

// Sum returns the sum of all samples.
func (l *Latency) Sum() uint64 { return l.sum }

// Min returns the smallest sample, or 0 if no samples were observed.
func (l *Latency) Min() uint64 { return l.min }

// Max returns the largest sample, or 0 if no samples were observed.
func (l *Latency) Max() uint64 { return l.max }

// Mean returns the average sample, or 0 if no samples were observed.
func (l *Latency) Mean() float64 {
	if l.count == 0 {
		return 0
	}
	return float64(l.sum) / float64(l.count)
}

// LatencyFromParts reconstructs an aggregate from its exported parts
// (Count/Sum/Min/Max) — the inverse of reading them out, used when a
// latency stream crosses a serialization boundary (the doramd wire format)
// and must be rebuilt without loss. A zero count yields the zero Latency
// regardless of the other parts.
func LatencyFromParts(count, sum, min, max uint64) Latency {
	if count == 0 {
		return Latency{}
	}
	return Latency{count: count, sum: sum, min: min, max: max}
}

// Reset clears all samples.
func (l *Latency) Reset() { *l = Latency{} }

// String formats the aggregate for debugging output.
func (l *Latency) String() string {
	return fmt.Sprintf("n=%d mean=%.1f min=%d max=%d", l.count, l.Mean(), l.min, l.max)
}

// Histogram is a fixed-boundary latency histogram. Boundaries are upper
// bounds of each bucket; samples above the last boundary land in an
// implicit overflow bucket.
type Histogram struct {
	bounds []uint64
	counts []uint64
	lat    Latency
}

// NewHistogram builds a histogram with the given ascending bucket upper
// bounds. It panics if bounds are empty or not strictly ascending, because
// that is a programming error in the caller.
func NewHistogram(bounds []uint64) *Histogram {
	if len(bounds) == 0 {
		panic("stats: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds must be strictly ascending")
		}
	}
	b := make([]uint64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]uint64, len(bounds)+1)}
}

// PowerOfTwoBounds returns n ascending bucket bounds 1, 2, 4, ..., 2^(n-1)
// for NewHistogram.
func PowerOfTwoBounds(n int) []uint64 {
	b := make([]uint64, n)
	for i := range b {
		b[i] = 1 << uint(i)
	}
	return b
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i]++
	h.lat.Observe(v)
}

// Bucket returns the count of samples in bucket i, where i == len(bounds)
// addresses the overflow bucket.
func (h *Histogram) Bucket(i int) uint64 { return h.counts[i] }

// NumBuckets returns the number of buckets including overflow.
func (h *Histogram) NumBuckets() int { return len(h.counts) }

// Latency returns the scalar aggregate over all observed samples.
func (h *Histogram) Latency() Latency { return h.lat }

// Bounds returns a copy of the bucket upper bounds (overflow excluded).
func (h *Histogram) Bounds() []uint64 {
	out := make([]uint64, len(h.bounds))
	copy(out, h.bounds)
	return out
}

// MergeFrom folds another latency aggregate into this one, as if every
// sample observed by o had been observed here.
func (l *Latency) MergeFrom(o Latency) {
	if o.count == 0 {
		return
	}
	if l.count == 0 || o.min < l.min {
		l.min = o.min
	}
	if o.max > l.max {
		l.max = o.max
	}
	l.count += o.count
	if o.saturated {
		l.saturated = true
		l.sum = math.MaxUint64
	} else {
		l.addSum(o.sum)
	}
}

// MergeFrom folds another histogram with identical bucket bounds into this
// one — the cross-run aggregation path (a serving process accumulating
// per-job latency attributions). Mismatched bounds are a programming
// error, reported rather than panicking because the source histogram may
// have crossed a process boundary.
func (h *Histogram) MergeFrom(o *Histogram) error {
	if o == nil {
		return nil
	}
	if len(h.bounds) != len(o.bounds) {
		return fmt.Errorf("stats: merging histograms with %d and %d bounds", len(h.bounds), len(o.bounds))
	}
	for i, b := range h.bounds {
		if o.bounds[i] != b {
			return fmt.Errorf("stats: merging histograms with mismatched bound %d (%d vs %d)", i, b, o.bounds[i])
		}
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.lat.MergeFrom(o.lat)
	return nil
}

// Percentile returns an upper bound for the p-th percentile using bucket
// boundaries and the nearest-rank rule Quantile uses. The overflow bucket
// reports the observed max. Out-of-contract inputs are clamped rather than
// rejected: p <= 0 returns the observed min (the tightest lower bound any
// percentile can have) and p > 100 behaves as p = 100. With no samples
// observed it returns 0. p must not be NaN.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.lat.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.lat.min
	}
	target := nearestRank(p, h.lat.count)
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			if i == len(h.bounds) {
				return h.lat.max
			}
			return h.bounds[i]
		}
	}
	return h.lat.max
}

// Summary is a one-call digest of a histogram: scalar mean plus the
// bucket-bound percentiles most reports want, as Histogram.Percentile
// computes them.
type Summary struct {
	Count uint64
	Mean  float64
	P50   uint64
	P95   uint64
	P99   uint64
}

// Summary computes {count, mean, p50, p95, p99}.
func (h *Histogram) Summary() Summary {
	return Summary{Count: h.lat.count, Mean: h.lat.Mean(),
		P50: h.Percentile(50), P95: h.Percentile(95), P99: h.Percentile(99)}
}

// Utilization tracks how many cycles a resource was busy out of a window.
type Utilization struct {
	busy  uint64
	total uint64
}

// AddBusy records d busy cycles.
func (u *Utilization) AddBusy(d uint64) { u.busy += d }

// AddTotal records d elapsed cycles.
func (u *Utilization) AddTotal(d uint64) { u.total += d }

// Value returns busy/total in [0,1], or 0 when no cycles elapsed.
func (u *Utilization) Value() float64 {
	if u.total == 0 {
		return 0
	}
	return float64(u.busy) / float64(u.total)
}

// Busy returns the accumulated busy cycles.
func (u *Utilization) Busy() uint64 { return u.busy }

// Total returns the accumulated elapsed cycles.
func (u *Utilization) Total() uint64 { return u.total }

// GeoMean returns the geometric mean of xs, ignoring non-positive entries.
// It returns 0 when no positive entries exist.
func GeoMean(xs []float64) float64 {
	var logSum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			logSum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Sample is a value observed Weight times: one input to Quantile.
// Unweighted samples use Weight 1.
type Sample struct {
	Value  float64
	Weight uint64
}

// Quantile returns the exact weighted nearest-rank p-th percentile of xs:
// the smallest value whose cumulative weight reaches the nearest rank of p
// in the total weight. Out-of-contract p is clamped as in
// Histogram.Percentile: p <= 0 gives the smallest value, p > 100 behaves
// as 100. It sorts a copy, leaving xs untouched, and returns 0 when the
// total weight is 0. Unlike Histogram.Percentile this is exact rather than
// a bucket upper bound; use it when the samples fit in memory.
func Quantile(xs []Sample, p float64) float64 {
	var total uint64
	for _, x := range xs {
		total += x.Weight
	}
	if total == 0 {
		return 0
	}
	sorted := make([]Sample, len(xs))
	copy(sorted, xs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Value < sorted[j].Value })
	target := nearestRank(p, total)
	var cum uint64
	for _, x := range sorted {
		cum += x.Weight
		if cum >= target {
			return x.Value
		}
	}
	return sorted[len(sorted)-1].Value // unreachable: cum ends at total >= target
}

// nearestRank is the nearest-rank rule shared by Quantile and Histogram:
// the 1-based position ceil(p/100 · n) of the p-th percentile among n > 0
// ordered observations, clamped to [1, n].
func nearestRank(p float64, n uint64) uint64 {
	if !(p > 0) {
		return 1
	}
	r := uint64(math.Ceil(min(p, 100) / 100 * float64(n)))
	// float64(n) rounds above 2^53 samples, so the rank can exceed the
	// population; clamp so p=100 still lands on the last observation.
	return max(1, min(r, n))
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
