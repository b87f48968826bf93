package delegator

import (
	"errors"
	"fmt"

	"doram/internal/addrmap"
	"doram/internal/bob"
	"doram/internal/clock"
	"doram/internal/evtrace"
	"doram/internal/mc"
	"doram/internal/metrics"
	"doram/internal/oram"
	"doram/internal/oram/backend"
	"doram/internal/oram/layout"
)

// SDConfig places the secure delegator's ORAM region.
type SDConfig struct {
	// OramBase is the byte offset of the ORAM region within each channel's
	// address space, separating ORAM rows from NS-App rows.
	OramBase uint64
}

// DefaultSDConfig returns the placement used in the evaluation.
func DefaultSDConfig() SDConfig {
	return SDConfig{OramBase: 1 << 38}
}

// The delegator's fixed timing, in CPU cycles.
const (
	// cryptoCycles models the SD's packet check (decrypt, authenticate,
	// integrity) and crypto pipeline fill.
	cryptoCycles = 16
	// fwdDelay is the processor-side forwarding cost for tree-split
	// messages relayed between the secure and normal channels.
	fwdDelay = 8
	// retryInterval is the repoll interval when a DRAM queue is full.
	retryInterval = clock.CPUPerMem
)

// sdAccess is one in-flight ORAM access's bookkeeping, pooled on the SD's
// free list from Submit until its write-back drains. The trace's node
// slices survive recycling, so the sampler refills them in place.
type sdAccess struct {
	a          Access // the engine's request, copied when Submit accepts it
	trace      oram.Trace
	readsLeft  int
	writesLeft int
	phaseStart uint64

	// Lifecycle timestamps for the latency-attribution breakdown (CPU
	// cycles): submit → link arrival → read start → last read → response
	// at CPU → write start → last write. Stages telescope so their sum is
	// exactly the end-to-end latency.
	submitAt   uint64
	linkArrive uint64
	readStart  uint64
	readEnd    uint64
	respAt     uint64
	writeStart uint64

	next *sdAccess // free-list link
}

// SD is the Path ORAM executor. In D-ORAM it is the secure delegator
// embedded in the secure channel's BOB unit: it receives encrypted request
// packets from the processor over the channel's serial link, executes full
// Path ORAM accesses against the channel's untrusted sub-channels (and,
// under tree split, the normal channels via forwarded short packets), and
// returns a single response packet per access. In the Path ORAM baseline
// the same state machine runs on-chip, in the processor (built by
// NewOnChip): there is no link to cross, and every block transfer crosses
// the direct-attached channels — the configuration whose extreme memory
// contention motivates D-ORAM (§II-C, Figure 4).
type SD struct {
	cfg     SDConfig
	sampler *oram.Sampler
	lay     *layout.Layout

	// link carries the request and response packets; nil for the on-chip
	// baseline, whose requests arrive at once and whose responses cost
	// only the crypto check.
	link *bob.Link
	// mcs are the controllers the tree is striped over: the secure BOB's
	// sub-channels in D-ORAM, one per direct channel in the baseline.
	mcs     []*mc.Controller
	normals []*bob.SimpleController // indexed 0..2 for channels 1..3

	subMap    []*addrmap.Mapper
	normalMap []*addrmap.Mapper

	// Phase pipeline: buffered is the submitted access waiting to start,
	// reading the one in its read phase, writing the one draining its
	// write-back, pendingWrite an access whose read phase finished while
	// another write-back was still in flight (only under OverlapPhases).
	buffered     *sdAccess
	reading      *sdAccess
	writing      *sdAccess
	pendingWrite *sdAccess

	// overlap lets the next access's read phase start while the previous
	// write phase drains — the phase acceleration of Wang et al. [39].
	// The paper's D-ORAM instead buffers the request (§III-B).
	overlap bool

	sched sched
	stats ExecStats

	// held tracks the blocks currently resident in the executor: read off
	// their path and not yet written back — its stash-plus-path-buffer
	// occupancy.
	held    int
	heldMax int

	// trace records per-access spans and the ORAM latency breakdown; nil
	// (the default) costs one nil check per lifecycle transition. track
	// is the access timeline row (e.g. "sapp0"); write-back drain spans
	// land on track+".wb" because they overlap the response stage.
	trace *evtrace.Tracer
	track string

	// freeAcc and freeReq head the free lists of per-access bookkeeping
	// and of block transactions. An access issues Z*(L+1) block
	// transactions per phase, so recycling both (and binding every
	// callback method value once, at allocation) keeps an ORAM access off
	// the allocator entirely in steady state. At most four accesses are
	// live (buffered, reading, writing, parked), so the lists stay short.
	freeAcc *sdAccess
	freeReq *sdReq

	tryStartFn func(uint64) // sd.tryStart, bound once for Submit
}

func (sd *SD) getAccess() *sdAccess {
	ctx := sd.freeAcc
	if ctx == nil {
		return &sdAccess{}
	}
	sd.freeAcc = ctx.next
	*ctx = sdAccess{trace: ctx.trace}
	return ctx
}

// putAccess recycles ctx once its write-back has drained: every block
// transaction of its read phase has been recycled, and those of its write
// phase have either been recycled or, as posted remote writes, no longer
// read it.
func (sd *SD) putAccess(ctx *sdAccess) {
	ctx.next = sd.freeAcc
	sd.freeAcc = ctx
}

// sdReq is one pooled block transaction: the controller request plus the
// retry/completion state its callbacks need. A local one runs on a striped
// channel; a remote one (nc set) moves a relocated (+k) block over the
// normal channel nc. The method values are bound at allocation and reused
// for the object's lifetime — handing them to the scheduler or the
// controller allocates nothing.
type sdReq struct {
	req  mc.Request
	sd   *SD
	ctx  *sdAccess
	sub  *mc.Controller
	nc   *bob.SimpleController // normal channel of a remote transaction, else nil
	read bool                  // route completion to readDone (else writeDone)

	onCompleteFn func(*mc.Request, uint64)
	attemptFn    func(uint64)
	arriveFn     func(uint64)
	next         *sdReq
}

func (sd *SD) getReq() *sdReq {
	r := sd.freeReq
	if r == nil {
		r = &sdReq{sd: sd}
		r.onCompleteFn = r.onComplete
		r.attemptFn = r.attempt
		r.arriveFn = r.arrive
		return r
	}
	sd.freeReq = r.next
	r.next = nil
	return r
}

// putReq recycles r. Safe at completion time: the controller drops its
// reference before firing OnComplete, and a successful Enqueue leaves no
// pending retry event, so nothing else can still reach r.
func (sd *SD) putReq(r *sdReq) {
	r.ctx, r.sub, r.nc = nil, nil, nil
	r.next = sd.freeReq
	sd.freeReq = r
}

// attempt enqueues the transaction, retrying while the DRAM queue is full.
// A remote write is posted: the access counts it done once the normal
// channel's controller accepts it.
func (r *sdReq) attempt(now uint64) {
	sd, ctx := r.sd, r.ctx
	posted := r.nc != nil && !r.read
	if !r.sub.Enqueue(&r.req, clock.ToMem(now)) {
		sd.sched.Add(now+retryInterval, r.attemptFn)
		return
	}
	// A forwarded or coalesced request completes inside Enqueue, which may
	// already have recycled r: only the locals are safe from here on.
	if posted {
		sd.writeDone(ctx, now)
	}
}

func (r *sdReq) onComplete(_ *mc.Request, memDone uint64) {
	sd, ctx, read := r.sd, r.ctx, r.read
	t := clock.ToCPU(memDone)
	if r.nc != nil {
		if !read {
			sd.putReq(r) // posted write drained; its access is done with it
			return
		}
		// The 72 B response retraces the request's path (§III-C).
		id := r.req.TraceID
		a3 := r.nc.Link().SendUpFor(id, bob.FullPacketBytes, t)
		sd.sched.Add(sd.link.SendDownFor(id, bob.FullPacketBytes, a3+fwdDelay), r.arriveFn)
		return
	}
	sd.putReq(r) // recycle first: readDone may start the write phase, which reuses r
	if read {
		sd.readDone(ctx, t)
	} else {
		sd.writeDone(ctx, t)
	}
}

// arrive delivers a remote block read's response to the SD.
func (r *sdReq) arrive(now uint64) {
	sd, ctx := r.sd, r.ctx
	sd.putReq(r)
	sd.readDone(ctx, now)
}

// SetOverlapPhases toggles read/write phase overlap across consecutive
// accesses ([39]'s acceleration; off reproduces the paper's buffering).
func (sd *SD) SetOverlapPhases(on bool) { sd.overlap = on }

// NewSD builds a delegator behind the secure channel. sampler provides the
// ORAM traces (at the paper's scale); lay must cover the same tree.
// normals supplies the normal channels' controllers and is required when
// lay.SplitK() > 0. geo describes the DRAM geometry behind every bus.
func NewSD(cfg SDConfig, sampler *oram.Sampler, lay *layout.Layout,
	secure *bob.SimpleController, normals []*bob.SimpleController,
	geo addrmap.Geometry) (*SD, error) {

	return newSD(cfg, sampler, lay, secure.Link(), secure.SubChannels(), normals, geo)
}

// NewOnChip builds the Path ORAM baseline's executor over the controllers
// of the direct-attached channels (bob.NewDirect), one per channel in
// channel order: the SD state machine with no link.
// lay must have no split (the baseline stripes every node's blocks across
// all channels).
func NewOnChip(cfg SDConfig, sampler *oram.Sampler, lay *layout.Layout,
	mcs []*mc.Controller, geo addrmap.Geometry) (*SD, error) {

	if lay.SplitK() != 0 {
		return nil, errors.New("delegator: on-chip baseline does not support tree split")
	}
	return newSD(cfg, sampler, lay, nil, mcs, nil, geo)
}

func newSD(cfg SDConfig, sampler *oram.Sampler, lay *layout.Layout, link *bob.Link,
	mcs []*mc.Controller, normals []*bob.SimpleController, geo addrmap.Geometry) (*SD, error) {

	if lay.Params().Levels != sampler.Params().Levels {
		return nil, fmt.Errorf("delegator: layout covers %d levels, sampler %d",
			lay.Params().Levels, sampler.Params().Levels)
	}
	if lay.SplitK() > 0 && len(normals) < layout.NumNormalChannels {
		return nil, fmt.Errorf("delegator: tree split needs %d normal channels, have %d",
			layout.NumNormalChannels, len(normals))
	}
	sd := &SD{cfg: cfg, sampler: sampler, lay: lay, link: link, mcs: mcs, normals: normals}
	sd.tryStartFn = sd.tryStart
	for i := range mcs {
		sd.subMap = append(sd.subMap, addrmap.New(geo, []int{i}))
	}
	for range normals {
		sd.normalMap = append(sd.normalMap, addrmap.New(geo, []int{0}))
	}
	return sd, nil
}

// Stats returns execution statistics.
func (sd *SD) Stats() *ExecStats { return &sd.stats }

// BlocksHeld returns the executor's current buffer occupancy in blocks:
// path blocks read in and not yet drained back to DRAM.
func (sd *SD) BlocksHeld() int { return sd.held }

// HeldCapacity bounds BlocksHeld: the delegator's pipeline holds at most
// three accesses' paths (one reading, one draining, one parked between
// them); the on-chip baseline runs one access at a time, so one path.
func (sd *SD) HeldCapacity() int {
	p := sd.lay.Params()
	path := (p.Levels + 1) * p.Z
	if sd.link == nil {
		return path
	}
	return 3 * path
}

// AttachMetrics registers the executor's state under prefix
// (e.g. "sapp0."): access counters at dump time and the buffer-occupancy
// (stash) series for the timeline. No-op on a nil registry.
func (sd *SD) AttachMetrics(r *metrics.Registry, prefix string) {
	if r == nil {
		return
	}
	r.CounterFunc(prefix+"accesses", sd.stats.Accesses.Value)
	r.CounterFunc(prefix+"real_accesses", sd.stats.RealAccesses.Value)
	r.CounterFunc(prefix+"dummy_accesses", sd.stats.DummyAccesses.Value)
	r.CounterFunc(prefix+"remote_blocks", sd.stats.RemoteBlocks.Value)
	r.CounterFunc(prefix+"stash_max", func() uint64 { return uint64(sd.heldMax) })
	r.CounterFunc(prefix+"stash_capacity", func() uint64 { return uint64(sd.HeldCapacity()) })
	r.Gauge(prefix+"stash_blocks", metrics.Level(sd.BlocksHeld))
	sd.sampler.AttachMetrics(r, prefix+"pos.")
}

// AttachTracer routes per-access lifecycle spans and the ORAM latency
// breakdown to t. track names the access timeline row (e.g. "sapp0").
// Breakdowns cover every access; spans only sampled ones. No-op on nil.
func (sd *SD) AttachTracer(t *evtrace.Tracer, track string) {
	sd.trace = t
	sd.track = track
}

// Busy reports whether an access is in flight.
func (sd *SD) Busy() bool {
	return sd.reading != nil || sd.writing != nil || sd.pendingWrite != nil || !sd.sched.Empty()
}

// Submit hands over one access at CPU cycle now: the processor's main
// controller sends the encrypted request packet over the secure channel's
// serial link (on-chip it is there at once). At most one access is
// buffered while the previous write phase drains (§III-B timing control);
// Submit returns false when that buffer is occupied and the engine must
// retry. An accepted access is copied, so the caller may reuse *a.
func (sd *SD) Submit(a *Access, now uint64) bool {
	if sd.buffered != nil {
		return false
	}
	arrival := now
	if sd.link != nil {
		arrival = sd.link.SendDownFor(a.TraceID, bob.FullPacketBytes, now)
	}
	ctx := sd.getAccess()
	ctx.a = *a
	ctx.submitAt, ctx.linkArrive = now, arrival
	sd.buffered = ctx
	sd.sched.Add(arrival+cryptoCycles, sd.tryStartFn)
	return true
}

// tryStart begins the buffered access when the pipeline allows: with no
// other work in the paper's buffering mode, or as soon as the read slot is
// free under phase overlap ([39]).
func (sd *SD) tryStart(now uint64) {
	if sd.reading != nil || sd.buffered == nil {
		return
	}
	if !sd.overlap && (sd.writing != nil || sd.pendingWrite != nil) {
		return
	}
	if sd.pendingWrite != nil {
		return // one parked write-back is the pipeline's depth limit
	}
	ctx := sd.buffered
	sd.buffered = nil
	sd.startRead(ctx, now)
}

func (sd *SD) startRead(ctx *sdAccess, now uint64) {
	ctx.phaseStart, ctx.readStart = now, now
	if ctx.a.Real {
		blockAddr := ctx.a.Addr / uint64(sd.lay.Params().BlockSize)
		sd.sampler.AccessInto(&ctx.trace, blockAddr)
		sd.stats.RealAccesses.Inc()
	} else {
		sd.sampler.DummyInto(&ctx.trace)
		sd.stats.DummyAccesses.Inc()
	}
	sd.stats.Accesses.Inc()
	sd.reading = ctx
	ctx.readsLeft = len(ctx.trace.ReadNodes) * sd.lay.Params().Z
	sd.issuePath(ctx, ctx.trace.ReadNodes, true, now)
}

// issuePath issues one block transaction per slot of nodes: reads
// (completing in readDone) or write-backs (in writeDone).
func (sd *SD) issuePath(ctx *sdAccess, nodes []backend.NodeID, read bool, now uint64) {
	z := sd.lay.Params().Z
	for _, node := range nodes {
		for slot := 0; slot < z; slot++ {
			sd.issue(ctx, sd.lay.Place(node, slot), read, now)
		}
	}
}

// issue enqueues one block transaction through a pooled request, retrying
// while the DRAM queue is full. A block on a striped channel is enqueued
// at once. A relocated block travels to its normal channel (§III-C): a
// read as a short read packet up the secure link, forwarded by the CPU
// down the normal channel's link, whose 72 B response retraces the path;
// a write as a full packet along the same route, then a posted DRAM write.
func (sd *SD) issue(ctx *sdAccess, pl layout.Placement, read bool, now uint64) {
	op := mc.OpWrite
	if read {
		op = mc.OpRead
	}
	id := ctx.a.TraceID
	if !pl.Remote {
		coord := sd.subMap[pl.SubChannel].Map(sd.cfg.OramBase + pl.Addr)
		r := sd.getReq()
		r.ctx, r.read = ctx, read
		r.sub = sd.mcs[pl.SubChannel]
		r.req = mc.Request{Op: op, Coord: coord, Secure: true, AppID: -1,
			TraceID: id, OnComplete: r.onCompleteFn}
		sd.sched.Add(now, r.attemptFn)
		return
	}
	sd.stats.RemoteBlocks.Inc()
	size := bob.FullPacketBytes
	if read {
		size = bob.ShortReadBytes
	}
	nc := sd.normals[pl.Channel-1]
	a1 := sd.link.SendUpFor(id, size, now)
	a2 := nc.Link().SendDownFor(id, size, a1+fwdDelay)
	coord := sd.normalMap[pl.Channel-1].Map(sd.cfg.OramBase + pl.Addr)
	r := sd.getReq()
	r.ctx, r.read, r.nc = ctx, read, nc
	r.sub = nc.SubChannels()[0]
	// Normal channels are not upgraded (§III-C): they cannot tell split
	// traffic from ordinary requests, so no Secure scheduling class here.
	r.req = mc.Request{Op: op, Coord: coord, AppID: -1, TraceID: id,
		OnComplete: r.onCompleteFn}
	sd.sched.Add(a2, r.attemptFn)
}

// readDone accounts one finished block read; the last one sends the
// response packet and hands the access to the write-back stage.
func (sd *SD) readDone(ctx *sdAccess, now uint64) {
	sd.held++
	if sd.held > sd.heldMax {
		sd.heldMax = sd.held
	}
	ctx.readsLeft--
	if ctx.readsLeft > 0 {
		return
	}
	sd.stats.ReadPhase.Observe(now - ctx.phaseStart)
	ctx.readEnd = now
	ctx.respAt = now + cryptoCycles
	if sd.link != nil {
		ctx.respAt = sd.link.SendUpFor(ctx.a.TraceID, bob.FullPacketBytes, ctx.respAt)
	}
	if ctx.a.OnResponse != nil {
		ctx.a.OnResponse(ctx.respAt)
	}
	sd.reading = nil
	if sd.writing == nil {
		sd.startWrite(ctx, now)
	} else {
		sd.pendingWrite = ctx // previous write-back still draining
	}
	sd.tryStart(now)
}

func (sd *SD) startWrite(ctx *sdAccess, now uint64) {
	sd.writing = ctx
	ctx.phaseStart = now
	ctx.writeStart = now
	ctx.writesLeft = len(ctx.trace.WriteNodes) * sd.lay.Params().Z
	sd.issuePath(ctx, ctx.trace.WriteNodes, false, now)
}

// writeDone accounts one finished block write; the last one closes the
// access, promotes a parked write-back and starts any buffered request.
func (sd *SD) writeDone(ctx *sdAccess, now uint64) {
	sd.held--
	ctx.writesLeft--
	if ctx.writesLeft > 0 {
		return
	}
	sd.stats.WritePhase.Observe(now - ctx.phaseStart)
	sd.finishAccess(ctx, now)
	sd.putAccess(ctx)
	sd.writing = nil
	if sd.pendingWrite != nil {
		next := sd.pendingWrite
		sd.pendingWrite = nil
		sd.startWrite(next, now)
	}
	sd.tryStart(now)
}

// finishAccess records the completed access's latency breakdown and spans.
// The stages telescope — link_down + sd_wait + read_phase + respond +
// writeback == end-to-end — so attribution sums exactly. Write-back drain
// overlaps the respond stage, so its span lives on a side track. On-chip
// link_down is recorded as 0 with no span.
func (sd *SD) finishAccess(ctx *sdAccess, now uint64) {
	if sd.trace == nil {
		return
	}
	end := ctx.respAt
	if now > end {
		end = now
	}
	sd.trace.RecordStages(evtrace.KindOram, ctx.a.TraceID, ctx.submitAt, end-ctx.submitAt,
		evtrace.Stage{Name: "link_down", Dur: ctx.linkArrive - ctx.submitAt},
		evtrace.Stage{Name: "sd_wait", Dur: ctx.readStart - ctx.linkArrive},
		evtrace.Stage{Name: "read_phase", Dur: ctx.readEnd - ctx.readStart},
		evtrace.Stage{Name: "respond", Dur: ctx.respAt - ctx.readEnd},
		evtrace.Stage{Name: "writeback", Dur: end - ctx.respAt})
	id := ctx.a.TraceID
	sd.trace.Emit(sd.track, "oram", "access", id, ctx.submitAt, end, 0)
	if sd.link != nil {
		sd.trace.Emit(sd.track, "oram", "link_down", id, ctx.submitAt, ctx.linkArrive, 0)
	}
	sd.trace.Emit(sd.track, "oram", "sd_wait", id, ctx.linkArrive, ctx.readStart, 0)
	sd.trace.Emit(sd.track, "oram", "read_phase", id, ctx.readStart, ctx.readEnd, 0)
	sd.trace.Emit(sd.track, "oram", "respond", id, ctx.readEnd, ctx.respAt, 0)
	sd.trace.Emit(sd.track+".wb", "oram", "write_phase", id, ctx.writeStart, now, 0)
}

// Tick processes due events; call once per memory-clock edge.
func (sd *SD) Tick(now uint64) { sd.sched.Run(now) }

// NextEvent reports the earliest CPU cycle strictly after now at which a
// Tick can change state: the earliest scheduled event, aligned up to the
// memory edge the per-cycle loop would run it on. clock.Never with an
// empty event list — the SD's other transitions happen synchronously
// inside the memory controllers' completion callbacks, so the controllers'
// own NextEvent covers them.
func (sd *SD) NextEvent(now uint64) uint64 {
	at, ok := sd.sched.NextAt()
	if !ok {
		return clock.Never
	}
	if at <= now {
		at = now + 1
	}
	return clock.AlignMemEdge(at)
}
