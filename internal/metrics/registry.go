// Package metrics is the simulator's observability substrate: a named
// registry of counters, gauges and histograms (reusing internal/stats for
// the actual aggregation) plus a cycle-sampled timeline recorder.
//
// The subsystem is default-off and designed around one invariant: when
// metrics are disabled the instrumented hot paths pay at most a nil check.
// A nil *Registry is a valid, fully inert registry — every method is a
// no-op and every instrument it hands out is a no-op — so components hold
// plain pointers and never branch on a separate "enabled" flag.
package metrics

import (
	"fmt"
	"sync/atomic"

	"doram/internal/stats"
)

// SyncCounter is a named monotonic event count, safe for concurrent use
// (the doramd job service counts through it from many goroutines). The
// simulator's components keep their own statistics and bridge them in
// through CounterFunc, so the cycle loop pays no atomic traffic. A nil
// *SyncCounter (handed out by a nil registry) is inert: Inc and Add do
// nothing, Value reports 0.
type SyncCounter struct {
	name string
	v    atomic.Uint64
}

// Inc increments the counter by one.
func (c *SyncCounter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add increments the counter by d.
func (c *SyncCounter) Add(d uint64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *SyncCounter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Name returns the registered name ("" on a nil counter).
func (c *SyncCounter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Histogram is a named fixed-boundary histogram. A nil *Histogram is
// inert.
type Histogram struct {
	name string
	h    *stats.Histogram
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	if h != nil {
		h.h.Observe(v)
	}
}

// Stats returns the underlying stats.Histogram (nil on a nil histogram).
func (h *Histogram) Stats() *stats.Histogram {
	if h == nil {
		return nil
	}
	return h.h
}

// GaugeFunc reads one instantaneous or interval-derived value at the
// given CPU cycle. Timeline sampling calls each registered gauge exactly
// once per epoch, in registration order, so stateful gauges (see Ratio and
// BusyRate) may keep per-interval state in their closure.
type GaugeFunc func(now uint64) float64

type namedGauge struct {
	name string
	fn   GaugeFunc
}

type namedCounterFunc struct {
	name string
	fn   func() uint64
}

// Registry collects named instruments for one simulation run. It is not
// safe for concurrent use; the simulator's single-threaded cycle loop is
// the intended caller (concurrent sweeps give each run its own registry).
type Registry struct {
	syncCounters []*SyncCounter
	counterFuncs []namedCounterFunc
	gauges       []namedGauge
	hists        []*Histogram
	names        map[string]struct{}

	timeline *Timeline
}

// New builds an enabled registry.
func New() *Registry {
	return &Registry{names: make(map[string]struct{})}
}

// claim panics on duplicate registration — metric names are a flat
// namespace and a collision is a wiring programming error.
func (r *Registry) claim(name string) {
	if _, dup := r.names[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
	r.names[name] = struct{}{}
}

// SyncCounter registers and returns the named concurrency-safe counter
// (nil on a nil registry). A registry whose instruments are only
// SyncCounters and CounterFuncs over atomic state may be dumped
// concurrently with updates; registration itself must still happen before
// the registry is shared.
func (r *Registry) SyncCounter(name string) *SyncCounter {
	if r == nil {
		return nil
	}
	r.claim(name)
	c := &SyncCounter{name: name}
	r.syncCounters = append(r.syncCounters, c)
	return c
}

// CounterFunc registers a read-only counter backed by fn — the bridge for
// pre-existing component statistics (dram.ChannelStats, mc.QueueStats,
// bob.LinkStats, ...) that should appear in metric dumps without moving
// their accumulation into the registry. fn is only called at dump time.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	if r == nil {
		return
	}
	r.claim(name)
	r.counterFuncs = append(r.counterFuncs, namedCounterFunc{name: name, fn: fn})
}

// Gauge registers a sampled series: fn is read once per timeline epoch and
// once at the final dump.
func (r *Registry) Gauge(name string, fn GaugeFunc) {
	if r == nil {
		return
	}
	r.claim(name)
	r.gauges = append(r.gauges, namedGauge{name: name, fn: fn})
}

// Histogram registers and returns a named histogram with the given
// ascending bucket upper bounds (nil on a nil registry).
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	if r == nil {
		return nil
	}
	r.claim(name)
	h := &Histogram{name: name, h: stats.NewHistogram(bounds)}
	r.hists = append(r.hists, h)
	return h
}

// CounterValues returns every counter and counter-func value, sorted by
// name (nil map on a nil registry).
func (r *Registry) CounterValues() map[string]uint64 {
	if r == nil {
		return nil
	}
	out := make(map[string]uint64, len(r.syncCounters)+len(r.counterFuncs))
	for _, c := range r.syncCounters {
		out[c.name] = c.Value()
	}
	for _, cf := range r.counterFuncs {
		out[cf.name] = cf.fn()
	}
	return out
}

// SeriesNames returns the registered gauge names in registration order.
func (r *Registry) SeriesNames() []string {
	if r == nil {
		return nil
	}
	names := make([]string, len(r.gauges))
	for i, g := range r.gauges {
		names[i] = g.name
	}
	return names
}

// Ratio builds a per-interval utilization gauge from a cumulative
// (busy, total) pair: each reading reports the busy fraction accumulated
// since the previous reading, which by construction integrates back to the
// cumulative totals. It reports 0 for an interval in which total did not
// advance.
func Ratio(fn func() (busy, total uint64)) GaugeFunc {
	var lastBusy, lastTotal uint64
	return func(uint64) float64 {
		busy, total := fn()
		db, dt := busy-lastBusy, total-lastTotal
		lastBusy, lastTotal = busy, total
		if dt == 0 {
			return 0
		}
		return float64(db) / float64(dt)
	}
}

// BusyRate builds a per-interval utilization gauge from a cumulative busy
// counter, using elapsed CPU cycles as the denominator — for resources
// (like the serial links) that are "on" every CPU cycle and only track
// occupancy.
func BusyRate(fn func() uint64) GaugeFunc {
	var lastBusy, lastNow uint64
	return func(now uint64) float64 {
		busy := fn()
		db, dt := busy-lastBusy, now-lastNow
		lastBusy, lastNow = busy, now
		if dt == 0 {
			return 0
		}
		return float64(db) / float64(dt)
	}
}

// Level adapts an instantaneous integer reading (queue depth, stash
// occupancy) into a gauge.
func Level(fn func() int) GaugeFunc {
	return func(uint64) float64 { return float64(fn()) }
}
