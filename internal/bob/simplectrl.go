package bob

import (
	"fmt"

	"doram/internal/addrmap"
	"doram/internal/clock"
	"doram/internal/evtrace"
	"doram/internal/mc"
	"doram/internal/metrics"
	"doram/internal/stats"
)

// NSRequest is one non-secure application access to a memory channel:
// across the serial link to a BOB channel, or straight into a direct
// channel's controller.
type NSRequest struct {
	Write bool
	// Coord locates the line on this channel; Coord.Bus is the local
	// sub-channel index.
	Coord addrmap.Coord
	AppID int
	// TraceID ties the request's tracer spans together; 0 = unsampled.
	TraceID uint64
	// OnDone fires for reads when the response packet reaches the CPU, or
	// on a direct channel when the burst ends (CPU cycles). Writes are
	// posted and have no response.
	OnDone func(cpuCycle uint64)
	// OnWriteDrained, if set on a write, fires when the data reaches the
	// DRAM device (CPU cycles, no response packet) — used for latency
	// accounting only.
	OnWriteDrained func(cpuCycle uint64)
}

// CtrlStats aggregates simple-controller behaviour.
type CtrlStats struct {
	Submitted stats.Counter
	Rejected  stats.Counter
	Forwarded stats.Counter // packets moved into a sub-channel controller
}

type arrivedReq struct {
	req      *NSRequest
	submitAt uint64 // CPU cycle the CPU handed the packet to the link
	readyAt  uint64 // CPU cycle the packet finishes arriving at the BOB
}

// SimpleController is the on-board half of one BOB channel: it receives
// request packets over the serial link, queues them, issues them to its
// sub-channel memory controllers with JEDEC-compliant timing, and returns
// response packets. The secure delegator of D-ORAM shares this
// controller's link and sub-channels (package delegator).
//
// Built by NewDirect it is instead a direct-attached channel: no link and
// no on-board buffer, one controller the processor drives itself.
type SimpleController struct {
	link *Link // nil on a direct channel
	subs []*mc.Controller
	// ch is a direct channel's index, the arg of its root spans.
	ch int

	inQ    []arrivedReq
	inQCap int

	stats CtrlStats

	// trace records per-request lifecycle spans and the NS latency
	// breakdown; nil (the default) costs one nil check per completion.
	// track is the timeline row, e.g. "chan1.bob".
	trace *evtrace.Tracer
	track string

	// freeFwd heads the fwdReq free list: sub-channel transactions are
	// recycled at completion, so forwarding allocates nothing in steady
	// state.
	freeFwd *fwdReq
}

// fwdReq is one pooled sub-channel transaction forwarded off the on-board
// queue: the controller request plus the response-path state completion
// needs. onCompleteFn is the onComplete method value, bound once at
// allocation.
type fwdReq struct {
	req      mc.Request
	s        *SimpleController
	ns       *NSRequest
	submitAt uint64 // CPU cycle the CPU handed the packet to the link
	readyAt  uint64 // CPU cycle the packet finished arriving at the BOB
	fwdCPU   uint64 // CPU cycle the packet left the on-board queue

	onCompleteFn func(*mc.Request, uint64)
	next         *fwdReq
}

func (s *SimpleController) getFwd() *fwdReq {
	f := s.freeFwd
	if f == nil {
		f = &fwdReq{s: s}
		f.onCompleteFn = f.onComplete
		return f
	}
	s.freeFwd = f.next
	f.next = nil
	return f
}

// putFwd recycles f. Safe at completion: the sub-channel controller drops
// its reference before firing OnComplete, and every forwarded request gets
// exactly one completion.
func (s *SimpleController) putFwd(f *fwdReq) {
	f.ns = nil
	f.next = s.freeFwd
	s.freeFwd = f
}

// onComplete finishes one forwarded request: reads send the response
// packet back over the link (when anyone is listening) and fire OnDone;
// writes fire OnWriteDrained. Both record the latency breakdown when a
// tracer is attached. All request state is copied out before the pool
// recycle so the object can be reused by a cascading forward.
func (f *fwdReq) onComplete(mr *mc.Request, memDone uint64) {
	s, r := f.s, f.ns
	submitAt, readyAt, fwdCPU := f.submitAt, f.readyAt, f.fwdCPU
	issuedAt := mr.IssuedAt
	s.putFwd(f)
	if s.link == nil {
		s.completeDirect(r, submitAt, clock.ToCPU(issuedAt), clock.ToCPU(memDone))
		return
	}
	trace := s.trace
	if !r.Write {
		if r.OnDone == nil && trace == nil {
			return // nobody waits for the response packet
		}
		// Response packet back over the link.
		arrive := s.link.SendUpFor(r.TraceID, FullPacketBytes, clock.ToCPU(memDone))
		if trace != nil {
			issued, done := clock.ToCPU(issuedAt), clock.ToCPU(memDone)
			trace.RecordStages(evtrace.KindNSRead, r.TraceID, submitAt, arrive-submitAt,
				evtrace.Stage{Name: "link_down", Dur: readyAt - submitAt},
				evtrace.Stage{Name: "bob_queue", Dur: fwdCPU - readyAt},
				evtrace.Stage{Name: "mc_queue", Dur: issued - fwdCPU},
				evtrace.Stage{Name: "dram", Dur: done - issued},
				evtrace.Stage{Name: "link_up", Dur: arrive - done})
			trace.Emit(s.track, "ns", "ns_read", r.TraceID, submitAt, arrive, 0)
			trace.Emit(s.track, "ns", "queued", r.TraceID, readyAt, fwdCPU, 0)
		}
		if r.OnDone != nil {
			r.OnDone(arrive)
		}
		return
	}
	if r.OnWriteDrained == nil && trace == nil {
		return
	}
	done := clock.ToCPU(memDone)
	if trace != nil {
		issued := clock.ToCPU(issuedAt)
		trace.RecordStages(evtrace.KindNSWrite, r.TraceID, submitAt, done-submitAt,
			evtrace.Stage{Name: "link_down", Dur: readyAt - submitAt},
			evtrace.Stage{Name: "bob_queue", Dur: fwdCPU - readyAt},
			evtrace.Stage{Name: "mc_queue", Dur: issued - fwdCPU},
			evtrace.Stage{Name: "dram", Dur: done - issued})
		trace.Emit(s.track, "ns", "ns_write", r.TraceID, submitAt, done, 0)
		trace.Emit(s.track, "ns", "queued", r.TraceID, readyAt, fwdCPU, 0)
	}
	if r.OnWriteDrained != nil {
		r.OnWriteDrained(done)
	}
}

// completeDirect finishes a request on a direct channel, issued by the CPU
// at cycle issue: there is no response packet, so a read is done when its
// burst ends.
func (s *SimpleController) completeDirect(r *NSRequest, issue, issued, done uint64) {
	if s.trace != nil {
		s.traceDirect(r, issue, issued, done)
	}
	if r.Write {
		if r.OnWriteDrained != nil {
			r.OnWriteDrained(done)
		}
	} else if r.OnDone != nil {
		r.OnDone(done)
	}
}

// traceDirect records one direct-channel request's latency breakdown
// (controller queue wait, then DRAM service) and its root span, with the
// channel index as its arg. The memory-clock flooring on
// enqueue and issue is folded into mc_queue so the two stages sum exactly
// to the end-to-end latency.
func (s *SimpleController) traceDirect(r *NSRequest, issue, issued, done uint64) {
	issued = min(max(issued, issue), done)
	kind, name := evtrace.KindNSRead, "ns_read"
	if r.Write {
		kind, name = evtrace.KindNSWrite, "ns_write"
	}
	s.trace.RecordStages(kind, r.TraceID, issue, done-issue,
		evtrace.Stage{Name: "mc_queue", Dur: issued - issue},
		evtrace.Stage{Name: "dram", Dur: done - issued})
	s.trace.Emit(s.track, "ns", name, r.TraceID, issue, done, uint64(s.ch))
}

// NewSimpleController builds a controller over the given link and
// sub-channel memory controllers. inQCap bounds the on-board request
// buffer (back-pressure to the CPU when full).
func NewSimpleController(link *Link, subs []*mc.Controller, inQCap int) (*SimpleController, error) {
	switch {
	case link == nil:
		return nil, fmt.Errorf("bob: simple controller needs a link")
	case len(subs) == 0:
		return nil, fmt.Errorf("bob: simple controller needs at least one sub-channel")
	case inQCap < 1:
		return nil, fmt.Errorf("bob: input queue capacity %d must be positive", inQCap)
	}
	return &SimpleController{link: link, subs: subs, inQCap: inQCap}, nil
}

// NewDirect builds direct-attached channel ch over its one controller.
// Submit enqueues straight into the controller, rejecting when its queue
// is full, and a read completes when its burst ends.
func NewDirect(sub *mc.Controller, ch int) *SimpleController {
	return &SimpleController{subs: []*mc.Controller{sub}, ch: ch}
}

// Link returns the channel's serial link (shared with the SD on the
// secure channel); nil on a direct channel.
func (s *SimpleController) Link() *Link { return s.link }

// SubChannels returns the sub-channel controllers.
func (s *SimpleController) SubChannels() []*mc.Controller { return s.subs }

// Stats returns controller statistics.
func (s *SimpleController) Stats() *CtrlStats { return &s.stats }

// QueueLen returns the on-board input buffer's current occupancy.
func (s *SimpleController) QueueLen() int { return len(s.inQ) }

// AttachMetrics registers the on-board buffer's behaviour under prefix
// (e.g. "chan0.bob."). The link and sub-channel controllers register
// separately under their own prefixes. No-op on a nil registry.
func (s *SimpleController) AttachMetrics(r *metrics.Registry, prefix string) {
	if r == nil {
		return
	}
	r.CounterFunc(prefix+"submitted", s.stats.Submitted.Value)
	r.CounterFunc(prefix+"rejected", s.stats.Rejected.Value)
	r.CounterFunc(prefix+"forwarded", s.stats.Forwarded.Value)
	r.Gauge(prefix+"in_q", metrics.Level(func() int { return len(s.inQ) }))
}

// AttachTracer routes per-request spans and NS latency breakdowns to t on
// the given track. Breakdowns are recorded for every request; spans only
// for those whose TraceID sampled in. No-op fields on nil.
func (s *SimpleController) AttachTracer(t *evtrace.Tracer, track string) {
	s.trace = t
	s.track = track
}

// Submit sends a request packet from the CPU's main controller at CPU
// cycle now. It returns false when the on-board buffer is full, or on a
// direct channel when the controller's queue is.
func (s *SimpleController) Submit(r *NSRequest, now uint64) bool {
	if s.link == nil {
		if !s.forward(arrivedReq{req: r, submitAt: now, readyAt: now}, clock.ToMem(now)) {
			s.stats.Rejected.Inc()
			return false
		}
		s.stats.Submitted.Inc()
		return true
	}
	if len(s.inQ) >= s.inQCap {
		s.stats.Rejected.Inc()
		return false
	}
	arrival := s.link.SendDownFor(r.TraceID, FullPacketBytes, now)
	s.inQ = append(s.inQ, arrivedReq{req: r, submitAt: now, readyAt: arrival})
	s.stats.Submitted.Inc()
	return true
}

// Tick advances the controller at a memory-clock edge (cpuNow must satisfy
// clock.IsMemEdge). It forwards arrived packets into sub-channel queues
// and ticks the DRAM controllers.
func (s *SimpleController) Tick(cpuNow uint64) {
	memNow := clock.ToMem(cpuNow)
	// Arrivals are nondecreasing along the queue (see NextEvent), so the
	// packets from the first one still on the link onwards all stay.
	kept, i := 0, 0
	for ; i < len(s.inQ) && s.inQ[i].readyAt <= cpuNow; i++ {
		if !s.forward(s.inQ[i], memNow) {
			s.inQ[kept] = s.inQ[i] // sub-channel queue full; retry
			kept++
		}
	}
	if kept < i {
		// Close the gap the forwarded packets left, and clear the vacated
		// tail so it holds no pointers to them.
		n := kept + copy(s.inQ[kept:], s.inQ[i:])
		clear(s.inQ[n:])
		s.inQ = s.inQ[:n]
	}
	for _, sub := range s.subs {
		sub.Tick(memNow)
	}
}

// NextEvent reports the earliest CPU cycle strictly after cpuNow at which
// a Tick can change observable state: the input queue head's arrival (an
// already-arrived head stuck on a full sub-channel queue retries every
// edge) or the earliest sub-channel controller event, both aligned to
// memory edges since Tick only runs there. The head is the earliest
// packet: packets enter the queue in link order, the link hands out
// nondecreasing arrivals on each direction, and Tick keeps the order.
// clock.Never when the queue is empty and every sub-channel is drained.
func (s *SimpleController) NextEvent(cpuNow uint64) uint64 {
	next := clock.Never
	floor := clock.AlignMemEdge(cpuNow + 1)
	if len(s.inQ) > 0 {
		if next = clock.AlignMemEdge(max(s.inQ[0].readyAt, cpuNow+1)); next <= floor {
			return floor
		}
	}
	memNow := clock.ToMem(cpuNow)
	for _, sub := range s.subs {
		if m := sub.NextEvent(memNow); m != clock.Never {
			if t := clock.ToCPU(m); t < next {
				if t <= floor {
					return floor
				}
				next = t
			}
		}
	}
	return next
}

// Skip forwards n elided memory cycles of idle accounting to the
// sub-channel controllers; the on-board queue itself keeps no per-cycle
// counters.
func (s *SimpleController) Skip(n uint64) {
	for _, sub := range s.subs {
		sub.Skip(n)
	}
}

// forward moves one request into its sub-channel controller via a pooled
// transaction. The completion callback is always attached — with nothing
// to deliver it only recycles the pool object.
func (s *SimpleController) forward(a arrivedReq, memNow uint64) bool {
	r := a.req
	sub := s.subs[r.Coord.Bus]
	op := mc.OpRead
	if r.Write {
		op = mc.OpWrite
	}
	f := s.getFwd()
	f.ns = r
	f.submitAt, f.readyAt, f.fwdCPU = a.submitAt, a.readyAt, clock.ToCPU(memNow)
	f.req = mc.Request{Op: op, Coord: r.Coord, AppID: r.AppID, TraceID: r.TraceID,
		OnComplete: f.onCompleteFn}
	if !sub.Enqueue(&f.req, memNow) {
		s.putFwd(f)
		return false
	}
	s.stats.Forwarded.Inc()
	return true
}

// Idle reports whether no packets are queued and all sub-channels drained.
func (s *SimpleController) Idle() bool {
	if len(s.inQ) > 0 {
		return false
	}
	for _, sub := range s.subs {
		if !sub.Idle() {
			return false
		}
	}
	return true
}
