package delegator

import (
	"doram/internal/addrmap"
	"doram/internal/clock"
	"doram/internal/evtrace"
	"doram/internal/mc"
	"doram/internal/metrics"
	"doram/internal/oram"
	"doram/internal/oram/backend"
	"doram/internal/oram/layout"
)

// ocState is the on-chip engine's serial phase (the baseline never
// overlaps accesses).
type ocState int

const (
	sdIdle ocState = iota
	sdRead
	sdWrite
)

// OnChip is the Path ORAM baseline executor: the protocol runs in the
// processor's secure engine and every block transfer crosses the off-chip
// buses of the direct-attached channels — the configuration whose extreme
// memory contention motivates D-ORAM (§II-C, Figure 4).
type OnChip struct {
	cfg     SDConfig
	sampler *oram.Sampler
	lay     *layout.Layout
	mcs     []*mc.Controller
	maps    []*addrmap.Mapper

	state    ocState
	cur      *Access
	buffered *Access

	curTrace   oram.Trace
	readsLeft  int
	writesLeft int
	phaseStart uint64

	sched sched
	stats ExecStats

	// held tracks blocks read off their path and not yet written back —
	// the baseline's on-chip stash-plus-path-buffer occupancy.
	held    int
	heldMax int

	// trace records per-access spans and the ORAM latency breakdown with
	// the same stage names as the SD (link_down is 0 on-chip), so baseline
	// and D-ORAM attribution reports compare stage by stage. nil costs one
	// nil check per transition.
	trace *evtrace.Tracer
	track string

	// Lifecycle timestamps of the single in-flight access (CPU cycles).
	bufferedSubmit uint64
	submitAt       uint64
	readStart      uint64
	readEnd        uint64
	respAt         uint64
	writeStart     uint64

	// freeReq heads the ocReq free list, mirroring the SD's sdReq pool: a
	// path touches Z*(L+1) blocks per phase, so recycling the requests
	// keeps both phases off the allocator in steady state.
	freeReq *ocReq
}

// ocReq is one pooled block transaction of the on-chip baseline; both
// callback method values are bound once at allocation.
type ocReq struct {
	req  mc.Request
	o    *OnChip
	ctrl *mc.Controller
	read bool // route completion to readDone (else writeDone)

	onCompleteFn func(*mc.Request, uint64)
	attemptFn    func(uint64)
	next         *ocReq
}

func (o *OnChip) getReq() *ocReq {
	r := o.freeReq
	if r == nil {
		r = &ocReq{o: o}
		r.onCompleteFn = r.onComplete
		r.attemptFn = r.attempt
		return r
	}
	o.freeReq = r.next
	r.next = nil
	return r
}

// putReq recycles r; safe at completion for the same reasons as SD.putReq.
func (o *OnChip) putReq(r *ocReq) {
	r.ctrl = nil
	r.next = o.freeReq
	o.freeReq = r
}

// attempt enqueues the transaction, retrying while the DRAM queue is full.
func (r *ocReq) attempt(now uint64) {
	if !r.ctrl.Enqueue(&r.req, clock.ToMem(now)) {
		r.o.sched.Add(now+r.o.cfg.RetryInterval, r.attemptFn)
	}
}

func (r *ocReq) onComplete(_ *mc.Request, memDone uint64) {
	o, read := r.o, r.read
	t := clock.ToCPU(memDone)
	o.putReq(r) // recycle first: readDone may start the write phase, which reuses r
	if read {
		o.readDone(t)
	} else {
		o.writeDone(t)
	}
}

// NewOnChip builds the baseline executor over the direct-attached channel
// controllers. lay must have no split (the baseline stripes every node's
// blocks across all channels).
func NewOnChip(cfg SDConfig, sampler *oram.Sampler, lay *layout.Layout,
	mcs []*mc.Controller, geo addrmap.Geometry) *OnChip {

	if lay.SplitK() != 0 {
		panic("delegator: on-chip baseline does not support tree split")
	}
	o := &OnChip{cfg: cfg, sampler: sampler, lay: lay, mcs: mcs}
	for range mcs {
		o.maps = append(o.maps, addrmap.New(geo, addrmap.OpenPage, []int{0}))
	}
	return o
}

// Stats returns execution statistics.
func (o *OnChip) Stats() *ExecStats { return &o.stats }

// BlocksHeld returns the executor's current buffer occupancy in blocks.
func (o *OnChip) BlocksHeld() int { return o.held }

// MaxBlocksHeld returns the high-water buffer occupancy observed.
func (o *OnChip) MaxBlocksHeld() int { return o.heldMax }

// HeldCapacity bounds BlocksHeld: the baseline runs one access at a time,
// so at most one full path is resident.
func (o *OnChip) HeldCapacity() int {
	p := o.lay.Params()
	return (p.Levels + 1) * p.Z
}

// AttachMetrics registers the baseline executor's state under prefix
// (e.g. "sapp0."), mirroring SD.AttachMetrics. No-op on a nil registry.
func (o *OnChip) AttachMetrics(r *metrics.Registry, prefix string) {
	if r == nil {
		return
	}
	r.CounterFunc(prefix+"accesses", o.stats.Accesses.Value)
	r.CounterFunc(prefix+"real_accesses", o.stats.RealAccesses.Value)
	r.CounterFunc(prefix+"dummy_accesses", o.stats.DummyAccesses.Value)
	r.CounterFunc(prefix+"remote_blocks", o.stats.RemoteBlocks.Value)
	r.CounterFunc(prefix+"stash_max", func() uint64 { return uint64(o.heldMax) })
	r.CounterFunc(prefix+"stash_capacity", func() uint64 { return uint64(o.HeldCapacity()) })
	r.Gauge(prefix+"stash_blocks", metrics.Level(o.BlocksHeld))
	o.sampler.AttachMetrics(r, prefix+"pos.")
}

// AttachTracer routes per-access lifecycle spans and the ORAM latency
// breakdown to t on the given track, mirroring SD.AttachTracer. No-op on
// nil.
func (o *OnChip) AttachTracer(t *evtrace.Tracer, track string) {
	o.trace = t
	o.track = track
}

// Busy reports whether an access is in flight.
func (o *OnChip) Busy() bool { return o.state != sdIdle || !o.sched.Empty() }

// Submit implements Executor.
func (o *OnChip) Submit(a *Access, now uint64) bool {
	if o.buffered != nil {
		return false
	}
	o.buffered = a
	o.bufferedSubmit = now
	o.sched.Add(now+o.cfg.CryptoCycles, o.tryStart)
	return true
}

func (o *OnChip) tryStart(now uint64) {
	if o.state != sdIdle || o.buffered == nil {
		return
	}
	a := o.buffered
	o.buffered = nil
	o.cur = a
	o.state = sdRead
	o.phaseStart = now
	o.submitAt = o.bufferedSubmit
	o.readStart = now
	if a.Real {
		o.curTrace = o.sampler.Access(a.Addr / uint64(o.lay.Params().BlockSize))
		o.stats.RealAccesses.Inc()
	} else {
		o.curTrace = o.sampler.Dummy()
		o.stats.DummyAccesses.Inc()
	}
	o.stats.Accesses.Inc()

	z := o.lay.Params().Z
	o.readsLeft = len(o.curTrace.ReadNodes) * z
	for _, node := range o.curTrace.ReadNodes {
		for slot := 0; slot < z; slot++ {
			o.issue(node, slot, mc.OpRead, true, now)
		}
	}
}

// issue enqueues one pooled block transaction, striping slots across
// channels. read routes the completion to readDone; otherwise writeDone.
func (o *OnChip) issue(node backend.NodeID, slot int, op mc.OpType, read bool, now uint64) {
	pl := o.lay.Place(node, slot)
	ch := pl.SubChannel % len(o.mcs)
	coord := o.maps[ch].Map(o.cfg.OramBase + pl.Addr)
	coord.Bus = ch
	r := o.getReq()
	r.read = read
	r.ctrl = o.mcs[ch]
	r.req = mc.Request{Op: op, Coord: coord, Secure: true, AppID: -1,
		TraceID: o.cur.TraceID, OnComplete: r.onCompleteFn}
	o.sched.Add(now, r.attemptFn)
}

func (o *OnChip) readDone(now uint64) {
	o.held++
	if o.held > o.heldMax {
		o.heldMax = o.held
	}
	o.readsLeft--
	if o.readsLeft > 0 {
		return
	}
	o.stats.ReadPhase.Observe(now - o.phaseStart)
	o.readEnd = now
	o.respAt = now + o.cfg.CryptoCycles
	if o.cur.OnResponse != nil {
		o.cur.OnResponse(o.respAt)
	}
	o.state = sdWrite
	o.phaseStart = now
	o.writeStart = now
	z := o.lay.Params().Z
	o.writesLeft = len(o.curTrace.WriteNodes) * z
	for _, node := range o.curTrace.WriteNodes {
		for slot := 0; slot < z; slot++ {
			o.issue(node, slot, mc.OpWrite, false, now)
		}
	}
}

func (o *OnChip) writeDone(now uint64) {
	o.held--
	o.writesLeft--
	if o.writesLeft > 0 {
		return
	}
	o.stats.WritePhase.Observe(now - o.phaseStart)
	o.finishAccess(now)
	o.state = sdIdle
	o.tryStart(now)
}

// finishAccess records the completed access's latency breakdown and spans,
// with the same telescoping stage partition as SD.finishAccess.
func (o *OnChip) finishAccess(now uint64) {
	if o.trace == nil {
		return
	}
	end := o.respAt
	if now > end {
		end = now
	}
	o.trace.RecordStages(evtrace.KindOram, o.cur.TraceID, o.submitAt, end-o.submitAt,
		evtrace.Stage{Name: "link_down", Dur: 0},
		evtrace.Stage{Name: "sd_wait", Dur: o.readStart - o.submitAt},
		evtrace.Stage{Name: "read_phase", Dur: o.readEnd - o.readStart},
		evtrace.Stage{Name: "respond", Dur: o.respAt - o.readEnd},
		evtrace.Stage{Name: "writeback", Dur: end - o.respAt})
	id := o.cur.TraceID
	o.trace.Emit(o.track, "oram", "access", id, o.submitAt, end, 0)
	o.trace.Emit(o.track, "oram", "sd_wait", id, o.submitAt, o.readStart, 0)
	o.trace.Emit(o.track, "oram", "read_phase", id, o.readStart, o.readEnd, 0)
	o.trace.Emit(o.track, "oram", "respond", id, o.readEnd, o.respAt, 0)
	o.trace.Emit(o.track+".wb", "oram", "write_phase", id, o.writeStart, now, 0)
}

// Tick processes due events; call once per memory-clock edge.
func (o *OnChip) Tick(now uint64) { o.sched.Run(now) }

// NextEvent reports the earliest CPU cycle strictly after now at which a
// Tick can change state, aligned to the memory edge the per-cycle loop
// would run it on; clock.Never with no pending events (completions arrive
// through the controllers' callbacks, covered by their NextEvent).
func (o *OnChip) NextEvent(now uint64) uint64 {
	at, ok := o.sched.NextAt()
	if !ok {
		return clock.Never
	}
	if at <= now {
		at = now + 1
	}
	return clock.AlignMemEdge(at)
}
