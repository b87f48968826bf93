// Package evtrace is a per-access event tracer: the request-granularity
// complement to internal/metrics' aggregates. Components record complete
// spans carrying a request ID as work flows cpu → secure engine → bob link
// → delegator → mc → dram; the tracer clamps malformed intervals,
// optionally retains spans in a bounded ring for Chrome trace-event JSON
// export (chrome.go), and always builds a per-stage latency attribution
// report (breakdown.go).
//
// Like internal/metrics, the package is nil-safe end to end: a nil *Tracer
// is a valid receiver for every method and does nothing, so a component
// holding an unattached tracer pays exactly one nil check per
// instrumentation point. The name avoids internal/trace, which loads MSC
// workload traces.
package evtrace

import (
	"slices"

	"doram/internal/stats"
)

// DefaultLimit is the ring size exporters request. At 88 bytes per Event
// a full ring holds about 17.6 MB, plus append growth on the way there.
const DefaultLimit = 200000

// DefaultTopK bounds the slowest-access report when Config.TopK is unset.
const DefaultTopK = 16

// Config controls retention and sampling.
type Config struct {
	// Limit is the maximum number of retained events; older events are
	// dropped (and counted) once the ring wraps. <= 0 keeps no ring:
	// malformed spans are still counted and the attribution report still
	// records, but no Event survives to Finish. Only a caller that
	// exports the trace (WriteChrome) needs a ring.
	Limit int
	// Sample keeps every Nth ORAM access (and NS request) in the event
	// ring; 0 or 1 keeps all. Breakdown histograms always record every
	// access regardless of sampling — Sample bounds export volume only.
	Sample uint64
	// TopK is how many slowest ORAM accesses to retain for the bottleneck
	// report. <= 0 means DefaultTopK.
	TopK int
	// OramOnly suppresses NS-request span IDs (RequestID returns 0) so
	// sweep traces stay small; ORAM accesses still trace, and NS
	// breakdown histograms still record.
	OramOnly bool
}

// Event is one completed span, half-open over [Start, End) in CPU cycles.
type Event struct {
	Track string // timeline row, e.g. "chan0.link.down", "sapp0"
	Cat   string // category: "oram", "ns", "link", "dram"
	Name  string // span label, e.g. "access", "read_phase", "packet"
	ID    uint64 // request ID tying spans of one access together; 0 = none
	Start uint64
	End   uint64
	Arg   uint64 // span-specific payload (bytes for packets, 0 otherwise)
	// Overlap marks resource-occupancy intervals (link packets, per-block
	// MC wait/service) rather than lifecycle spans: one access fans out
	// many of them onto one track, so same-ID intervals legitimately
	// overlap. The Chrome export carries their ID under "req" instead of
	// "id", exempting them from the per-ID nesting invariant.
	Overlap bool
}

// Tracer accumulates per-stage breakdown histograms plus, when
// Config.Limit is positive, events in a bounded ring. Not safe for
// concurrent use; the simulator is single-threaded.
type Tracer struct {
	cfg Config

	events  []Event // ring storage, len == cfg.Limit once full; nil with no ring
	head    int     // next write position once full
	full    bool
	dropped uint64 // events discarded after the ring wrapped

	accessSeq  uint64 // ORAM accesses seen by AccessID
	requestSeq uint64 // NS requests seen by RequestID
	nextID     uint64 // last allocated non-zero span ID

	violations uint64 // invariant breaches (end before start, stage sums)

	kinds map[string]*kindStats // breakdown accumulators, by kind
	order []string              // kind insertion order, for stable reports

	top []TopAccess // slowest "oram"-kind accesses, ascending by Total
}

// New builds a Tracer. Zero-value Sample and TopK take defaults; a
// zero-value Limit keeps no event ring.
func New(cfg Config) *Tracer {
	if cfg.Sample == 0 {
		cfg.Sample = 1
	}
	if cfg.TopK <= 0 {
		cfg.TopK = DefaultTopK
	}
	return &Tracer{cfg: cfg, kinds: make(map[string]*kindStats)}
}

// AccessID allocates a span ID for the next ORAM access, or 0 when this
// access falls outside the sampling stride. An ID of 0 means "emit no spans
// for this access"; every instrumentation point honours that. Safe on nil.
func (t *Tracer) AccessID() uint64 {
	if t == nil {
		return 0
	}
	t.accessSeq++
	if (t.accessSeq-1)%t.cfg.Sample != 0 {
		return 0
	}
	t.nextID++
	return t.nextID
}

// RequestID allocates a span ID for the next NS-App request, or 0 when NS
// tracing is suppressed (OramOnly) or sampled out. Safe on nil.
func (t *Tracer) RequestID() uint64 {
	if t == nil || t.cfg.OramOnly {
		return 0
	}
	t.requestSeq++
	if (t.requestSeq-1)%t.cfg.Sample != 0 {
		return 0
	}
	t.nextID++
	return t.nextID
}

// Emit records a complete lifecycle span of request id, for sites that
// know both endpoints (completion callbacks). An end before start is an
// invariant violation (counted, then clamped). Safe on nil; a zero id is a
// no-op.
func (t *Tracer) Emit(track, cat, name string, id, start, end, arg uint64) {
	if t == nil || id == 0 {
		return
	}
	if end < start {
		t.violations++
		end = start
	}
	t.push(Event{Track: track, Cat: cat, Name: name, ID: id, Start: start, End: end, Arg: arg})
}

// EmitOverlap records a complete resource-occupancy interval tied to request
// id: sampled out (id 0) means no-op, like Emit, but the event is marked
// Overlap because many such intervals per access may coexist on one track
// (per-block MC transactions, pipelined link packets) and must not be held
// to the per-ID nesting check of ValidateChromeJSON. Safe on nil.
func (t *Tracer) EmitOverlap(track, cat, name string, id, start, end, arg uint64) {
	if t == nil || id == 0 {
		return
	}
	if end < start {
		t.violations++
		end = start
	}
	t.push(Event{Track: track, Cat: cat, Name: name, ID: id, Start: start, End: end, Arg: arg, Overlap: true})
}

// EmitUnkeyed records a complete span with no request ID, for background
// activity not tied to any access (DRAM refresh windows). Unkeyed spans are
// exempt from the per-ID nesting checks — concurrent refreshes on different
// ranks legitimately overlap on one track. Safe on nil.
func (t *Tracer) EmitUnkeyed(track, cat, name string, start, end, arg uint64) {
	if t == nil {
		return
	}
	if end < start {
		t.violations++
		end = start
	}
	t.push(Event{Track: track, Cat: cat, Name: name, Start: start, End: end, Arg: arg})
}

// push appends to the ring, evicting the oldest event once full. With no
// ring it drops the event uncounted: nothing was asked to keep it.
func (t *Tracer) push(ev Event) {
	if t.cfg.Limit <= 0 {
		return
	}
	if !t.full {
		t.events = append(t.events, ev)
		if len(t.events) == t.cfg.Limit {
			t.full = true
		}
		return
	}
	t.events[t.head] = ev
	t.head = (t.head + 1) % len(t.events)
	t.dropped++
}

// Trace is the finished, immutable result attached to run results.
type Trace struct {
	Events     []Event // completed spans in ring order (oldest first); nil with no ring
	Dropped    uint64  // events evicted by the ring bound; 0 with no ring
	Violations uint64  // invariant breaches observed while recording
	Report     Report  // per-stage latency attribution
	Top        []TopAccess
	// StageHists are the full per-stage latency histograms behind Report,
	// keyed "<kind>/<stage>" plus "<kind>/total" — the bucket-accurate
	// form a serving process merges across jobs (Report keeps only
	// summaries). Excluded from JSON like Events; the breakdown bounds
	// are identical for every histogram, so cross-run merges are exact.
	StageHists map[string]*stats.Histogram `json:"-"`
}

// Finish snapshots the tracer into an immutable Trace. Safe on nil (returns
// nil). The tracer is done afterwards: the ring transfers to the Trace
// without a copy, rotated in place into oldest-first order if it wrapped.
func (t *Tracer) Finish() *Trace {
	if t == nil {
		return nil
	}
	events := t.events
	if t.head != 0 {
		// Left-rotate by head: oldest survivor (events[head]) to the front.
		slices.Reverse(events[:t.head])
		slices.Reverse(events[t.head:])
		slices.Reverse(events)
	}
	t.events, t.head, t.full = nil, 0, false
	top := make([]TopAccess, len(t.top))
	copy(top, t.top)
	// t.top is kept ascending for cheap replacement; report slowest first.
	for i, j := 0, len(top)-1; i < j; i, j = i+1, j-1 {
		top[i], top[j] = top[j], top[i]
	}
	return &Trace{
		Events:     events,
		Dropped:    t.dropped,
		Violations: t.violations,
		Report:     t.report(),
		Top:        top,
		StageHists: t.stageHists(),
	}
}

// Validate checks the invariants a finished trace must satisfy: no recorded
// violations and every span well-formed (End >= Start). Per-ID nesting is
// checked on the export, by ValidateChromeJSON. Returns nil on a nil trace.
func (tr *Trace) Validate() error {
	if tr == nil {
		return nil
	}
	if tr.Violations != 0 {
		return errorf("trace recorded %d invariant violations", tr.Violations)
	}
	for i, ev := range tr.Events {
		if ev.End < ev.Start {
			return errorf("event %d (%s/%s): end %d < start %d", i, ev.Track, ev.Name, ev.End, ev.Start)
		}
	}
	return nil
}
