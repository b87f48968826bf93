package delegator

import (
	"doram/internal/clock"
	"doram/internal/evtrace"
	"doram/internal/metrics"
	"doram/internal/stats"
)

// DefaultPace is the paper's timing-protection interval t: a new (possibly
// dummy) request issues t CPU cycles after the previous response packet
// arrives (§III-B item 2).
const DefaultPace = 50

// Engine is the on-chip secure engine serving one S-App core. It queues
// the core's LLC misses, converts them into constant-rate ORAM requests
// (inserting dummies when the core is idle), and completes the core's
// reads when response packets arrive. OTP pads are pregenerated (Eq. 1),
// so packet encryption adds no latency here; the SD models its own crypto
// check cost.
type Engine struct {
	pace     uint64
	exec     *SD
	queueCap int

	pending []engineOp

	// sendAt is the cycle the next request becomes due; waiting marks
	// whether a request, issued at sentAt, is awaiting its response.
	sendAt  uint64
	waiting bool
	sentAt  uint64

	// req is the engine's one request, reused for every issue attempt: a
	// request awaits its response before the next issues, and the SD
	// copies it when Submit accepts it. Its OnResponse is e.onResponse,
	// bound once; onDone is the core's callback for the op in flight (nil
	// for a dummy).
	req    Access
	onDone func(uint64)

	// Request-stream counters, exported by AttachMetrics.
	realSent, dummySent, queueFull stats.Counter

	// trace allocates per-access IDs and records engine-level request
	// spans; nil (the default) costs one nil check per issued access.
	// track is the timeline row, e.g. "sapp0.engine".
	trace *evtrace.Tracer
	track string
}

type engineOp struct {
	write  bool
	addr   uint64
	onDone func(uint64)
}

// NewEngine builds an engine pacing requests every pace cycles over exec.
// queueCap bounds the core-visible miss queue.
func NewEngine(exec *SD, pace uint64, queueCap int) *Engine {
	if pace == 0 || queueCap < 1 {
		panic("delegator: engine needs positive pace and queue capacity")
	}
	e := &Engine{pace: pace, exec: exec, queueCap: queueCap}
	e.req.OnResponse = e.onResponse
	return e
}

// QueueLen returns the number of core requests awaiting ORAM service.
func (e *Engine) QueueLen() int { return len(e.pending) }

// AttachMetrics registers the secure engine's request stream under prefix
// (e.g. "sapp0.engine."). No-op on a nil registry.
func (e *Engine) AttachMetrics(r *metrics.Registry, prefix string) {
	if r == nil {
		return
	}
	r.CounterFunc(prefix+"real_sent", e.realSent.Value)
	r.CounterFunc(prefix+"dummy_sent", e.dummySent.Value)
	r.CounterFunc(prefix+"queue_full", e.queueFull.Value)
	r.Gauge(prefix+"queue", metrics.Level(e.QueueLen))
	r.Gauge(prefix+"pace", func(uint64) float64 { return float64(e.pace) })
}

// AttachTracer makes the engine the ID-allocation point for ORAM accesses:
// each issued access (real or dummy) draws an ID from t's sampler and is
// recorded as a "request" span from issue to response arrival. No-op
// fields on nil.
func (e *Engine) AttachTracer(t *evtrace.Tracer, track string) {
	e.trace = t
	e.track = track
}

// Access implements the core's memory port (cpu.Port compatible): S-App
// misses enter the secure engine's queue. Writes are posted; reads
// complete when their ORAM access responds.
func (e *Engine) Access(write bool, addr uint64, now uint64, onDone func(uint64)) bool {
	if len(e.pending) >= e.queueCap {
		e.queueFull.Inc()
		return false
	}
	e.pending = append(e.pending, engineOp{write: write, addr: addr, onDone: onDone})
	return true
}

// CanAccept implements cpu.RejectingPort: whether an Access right now
// would be admitted. Capacity frees only when Tick issues a pending
// request, so a core spinning on a full queue can sleep between engine
// events.
func (e *Engine) CanAccept() bool { return len(e.pending) < e.queueCap }

// SkipRejects implements cpu.RejectingPort: accounts n elided rejected
// retries against the full-queue counter, exactly as n per-cycle Access
// attempts would have.
func (e *Engine) SkipRejects(n uint64) { e.queueFull.Add(n) }

// NextEvent reports the earliest CPU cycle strictly after now at which a
// Tick can change observable state. While awaiting a response the engine
// returns clock.Never (OnResponse rearms sendAt); once due it must be
// ticked every cycle because each attempt draws a tracer access ID even
// when the executor rejects the submit.
func (e *Engine) NextEvent(now uint64) uint64 {
	if e.waiting {
		return clock.Never
	}
	if e.sendAt > now {
		return e.sendAt
	}
	return now + 1
}

// Tick advances the engine by one CPU cycle, issuing a request when due.
func (e *Engine) Tick(now uint64) {
	if e.waiting || now < e.sendAt {
		return
	}
	var op engineOp
	hasOp := len(e.pending) > 0
	if hasOp {
		op = e.pending[0]
	}
	e.req.Real, e.req.Write, e.req.Addr, e.req.TraceID = hasOp, op.write, op.addr, 0
	if e.trace != nil {
		e.req.TraceID = e.trace.AccessID()
	}
	if !e.exec.Submit(&e.req, now) {
		return // executor write phase backlog; retry next cycle
	}
	if hasOp {
		// Shift in place so the queue's array is reused, never regrown.
		n := copy(e.pending, e.pending[1:])
		e.pending[n] = engineOp{}
		e.pending = e.pending[:n]
		e.realSent.Inc()
	} else {
		e.dummySent.Inc()
	}
	e.onDone = op.onDone
	e.waiting = true
	e.sentAt = now
}

// onResponse is the request's OnResponse: it starts the t-cycle countdown
// to the next issue and completes the core's op.
func (e *Engine) onResponse(resp uint64) {
	e.waiting = false
	e.sendAt = resp + e.pace
	e.trace.Emit(e.track, "oram", "request", e.req.TraceID, e.sentAt, resp, 0)
	if e.onDone != nil {
		e.onDone(resp)
	}
}
