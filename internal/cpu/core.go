// Package cpu models a trace-driven out-of-order core front-end in the
// style of USIMM: a reorder buffer (ROB) with configurable size and
// fetch/retire widths, where memory reads block retirement until data
// returns and writes are posted to the memory system at fetch.
//
// All times in this package are CPU cycles (3.2 GHz in the paper's
// configuration).
package cpu

import (
	"doram/internal/clock"
	"doram/internal/trace"
)

// Config sets the core parameters (Table II of the paper).
type Config struct {
	ROBSize     int
	FetchWidth  int
	RetireWidth int
}

// DefaultConfig returns the paper's core: 128-entry ROB, 4-wide fetch and
// retire.
func DefaultConfig() Config {
	return Config{ROBSize: 128, FetchWidth: 4, RetireWidth: 4}
}

// Port is the core's window into the memory system. Implementations route
// an access to an on-chip memory controller, across a BOB serial link, or
// into an ORAM engine.
type Port interface {
	// Access submits an access at CPU cycle now. addr is an
	// application-local byte address. It returns false when the downstream
	// queue is full; the core stalls fetch and retries.
	//
	// For reads, onDone must be invoked exactly once with the CPU cycle the
	// data arrived. For writes onDone is nil (posted writes).
	Access(write bool, addr uint64, now uint64, onDone func(doneCycle uint64)) bool
}

// RejectingPort is optionally implemented by ports whose Access rejects
// under back-pressure and frees capacity only at their own events, so a
// core retrying against a full port can sleep until then. CanAccept
// reports whether an Access right now would be admitted; SkipRejects
// accounts n rejected retries the sleeping core did not make (one per
// elided cycle).
type RejectingPort interface {
	CanAccept() bool
	SkipRejects(n uint64)
}

// memOp tracks one in-flight memory instruction. Ops are pooled on the
// core (ROB occupancy bounds the live set) and their completion callback
// is a method value bound at allocation, so fetching a memory instruction
// allocates nothing in steady state.
type memOp struct {
	instrIdx uint64
	write    bool
	addr     uint64
	done     bool

	core     *Core
	onDoneFn func(uint64)
	next     *memOp // free list
}

// onDone is the read-completion callback handed to the memory port. The
// core's wake hook runs before the read becomes visible to retirement, so
// a lazily driven core is brought current under the state its horizon
// was computed from.
func (op *memOp) onDone(doneCycle uint64) {
	c := op.core
	if c.wake != nil {
		c.wake()
	}
	op.done = true
	c.plan.valid = false
}

// Core executes one application trace.
type Core struct {
	cfg  Config
	tr   trace.Reader
	port Port

	fetchIdx  uint64 // instructions fetched into the ROB
	retireIdx uint64 // instructions retired

	// Program-order FIFO of unretired memory instructions: the live window
	// is ops[opHead:]. Retirement advances opHead instead of reslicing so
	// the backing array is reused; fetch compacts it when full.
	ops     []*memOp
	opHead  int
	freeOps *memOp

	// Next trace record, already positioned at an absolute instruction
	// index (nextOpIdx counts the record's Gap non-memory instructions
	// first, then the access itself).
	haveRec   bool
	nextRec   trace.Record
	nextOpIdx uint64
	nextEnd   uint64 // instruction index just past the access

	traceDone  bool
	finishedAt uint64

	// rport is port as a RejectingPort, nil when it is not one.
	rport RejectingPort

	// Lazy driving (Horizon, CatchUp): next is the first cycle whose
	// retire and fetch have not been applied, plan the last dry run, and
	// wake the hook a read completion runs first (see SetWake).
	next uint64
	plan plan
	wake func()
}

// dry is the part of the core state that retire and fetch change between
// port accesses: the fetch and retire frontiers and the index in ops of
// the oldest unretired memory instruction.
type dry struct {
	fetch, retire uint64
	op            int
}

// plan is what the last Horizon dry run found, valid until the next Tick
// or read completion. The core holds state d after cycle at and every
// later cycle up to horizon−1; for a core asleep on a rejecting port,
// every cycle from stallFrom on is one rejected retry. horizon and
// stallFrom are clock.Never when they do not apply.
type plan struct {
	d         dry
	at        uint64
	horizon   uint64
	stallFrom uint64
	valid     bool
}

// New builds a core over the given trace and memory port. The leading
// argument is the caller's core number, which the core itself never reads.
func New(_ int, cfg Config, tr trace.Reader, port Port) *Core {
	c := &Core{cfg: cfg, tr: tr, port: port}
	c.rport, _ = port.(RejectingPort)
	c.pull()
	return c
}

// SetWake installs fn to run at every read completion, before the read
// becomes visible to retirement. A loop that drives the core lazily uses
// it to CatchUp the core to the current cycle and to recompute its
// Horizon. Per-cycle driving needs no hook.
func (c *Core) SetWake(fn func()) { c.wake = fn }

// Retired returns the number of retired instructions.
func (c *Core) Retired() uint64 { return c.retireIdx }

// Done reports whether the core has retired its entire trace.
func (c *Core) Done() bool {
	return c.traceDone && !c.haveRec && c.retireIdx == c.fetchIdx
}

// FinishedAt returns the cycle the last instruction retired (valid once
// Done is true).
func (c *Core) FinishedAt() uint64 { return c.finishedAt }

// opCount returns the number of unretired memory instructions.
func (c *Core) opCount() int { return len(c.ops) - c.opHead }

// frontOp returns the oldest unretired memory instruction.
func (c *Core) frontOp() *memOp { return c.ops[c.opHead] }

func (c *Core) getOp() *memOp {
	op := c.freeOps
	if op == nil {
		op = &memOp{core: c}
		op.onDoneFn = op.onDone
		return op
	}
	c.freeOps = op.next
	op.next = nil
	return op
}

// putOp recycles op. Safe at retirement: a read only retires once done,
// i.e. after its single onDone fired, so nothing else references it.
func (c *Core) putOp(op *memOp) {
	op.next = c.freeOps
	c.freeOps = op
}

// pull advances to the next trace record.
func (c *Core) pull() {
	rec, ok := c.tr.Next()
	if !ok {
		c.haveRec = false
		c.traceDone = true
		return
	}
	c.haveRec = true
	c.nextRec = rec
	c.nextOpIdx = c.nextEnd + uint64(rec.Gap)
	c.nextEnd = c.nextOpIdx + 1
}

// Tick advances the core by one CPU cycle: retire then fetch, so a
// same-cycle completion cannot retire in the cycle it was fetched.
func (c *Core) Tick(now uint64) {
	c.next = now + 1
	c.plan.valid = false
	if c.Done() {
		return
	}
	c.retire(now)
	c.fetch(now)
}

// Horizon returns the first cycle after now whose Tick would call
// Port.Access (accepted or rejected) or retire the core's last
// instruction, assuming no read completes first. It returns clock.Never
// when the core can only wait: blocked behind an unfinished read with
// nothing left to fetch, or retrying a RejectingPort that cannot accept
// while retirement is blocked. The core must be current through now.
//
// Between port accesses retire and fetch depend only on the frontiers
// and the completion state of the ROB's memory instructions, so Horizon
// is a dry run over those scalars, in closed form across runs of
// full-width cycles (see leap). It keeps the state it reaches for
// CatchUp.
func (c *Core) Horizon(now uint64) uint64 {
	c.plan.valid = false
	if c.Done() {
		return clock.Never
	}
	d := c.state()
	for t := now; ; {
		t += c.leap(&d, clock.Never-t)
		prev := d
		t++
		moved, access := c.step(&d)
		switch {
		case !c.haveRec && d.retire == d.fetch,
			access && (moved || c.rport == nil || c.rport.CanAccept()):
			c.plan = plan{d: prev, at: t - 1, horizon: t, stallFrom: clock.Never, valid: true}
			return t
		case access:
			// Every cycle from t on retries the full port in vain.
			c.plan = plan{d: d, at: t - 1, horizon: clock.Never, stallFrom: t, valid: true}
			return clock.Never
		case !moved:
			c.plan = plan{d: d, at: t - 1, horizon: clock.Never, stallFrom: clock.Never, valid: true}
			return clock.Never
		}
	}
}

// CatchUp applies every cycle up to and including through, which must
// lie before the core's horizon. From the cycle the last Horizon dry run
// ended at, this commits the recorded state in O(1), including the
// rejected retries of a core asleep on its port; before it (a read
// completed first) the cycles are replayed.
func (c *Core) CatchUp(through uint64) {
	if through < c.next || c.Done() {
		return
	}
	if p := &c.plan; p.valid && through >= p.at {
		if through >= p.horizon {
			panic("cpu: CatchUp past the core's horizon")
		}
		c.commit(p.d)
		if through >= p.stallFrom {
			c.rport.SkipRejects(through + 1 - max(c.next, p.stallFrom))
		}
	} else {
		d := c.state()
		for t := c.next; t <= through; t++ {
			if t += c.leap(&d, through+1-t); t > through {
				break
			}
			if _, access := c.step(&d); access || !c.haveRec && d.retire == d.fetch {
				panic("cpu: CatchUp past the core's horizon")
			}
		}
		c.commit(d)
	}
	c.next = through + 1
}

// state returns the core's current dry-run state.
func (c *Core) state() dry {
	return dry{fetch: c.fetchIdx, retire: c.retireIdx, op: c.opHead}
}

// commit makes d the core's state, recycling the memory instructions it
// retired.
func (c *Core) commit(d dry) {
	for c.opHead < len(c.ops) && c.ops[c.opHead].instrIdx < d.retire {
		op := c.ops[c.opHead]
		c.ops[c.opHead] = nil
		c.opHead++
		c.putOp(op)
	}
	if c.opHead == len(c.ops) {
		c.ops = c.ops[:0]
		c.opHead = 0
	}
	c.fetchIdx, c.retireIdx = d.fetch, d.retire
}

// retireStep applies one cycle's retirement to d and reports whether it
// retired anything: up to RetireWidth instructions in order, stopping at
// a read whose data has not returned. It is retire's rule over the dry
// state; Tick keeps its own copy, which updates the core in place and is
// measurably cheaper per cycle, and TestPropertyCoreHorizon holds the two
// together.
func (c *Core) retireStep(d *dry) bool {
	budget := uint64(c.cfg.RetireWidth)
	moved := false
	for budget > 0 && d.retire < d.fetch {
		limit := d.fetch
		if d.op < len(c.ops) {
			op := c.ops[d.op]
			if op.instrIdx == d.retire {
				if !op.write && !op.done {
					break // blocking read at ROB head
				}
				d.op++
				d.retire++
				budget--
				moved = true
				continue
			}
			limit = min(limit, op.instrIdx)
		}
		// Retire non-memory instructions up to the next memory op or the
		// fetch frontier.
		n := min(limit-d.retire, budget)
		d.retire += n
		budget -= n
		moved = true
	}
	return moved
}

// step applies one cycle of retire-then-fetch to d without touching the
// port. It reports whether the cycle changed d and whether its fetch
// would go on to call Port.Access: the next access is at the fetch
// frontier with fetch budget and ROB space left.
func (c *Core) step(d *dry) (moved, access bool) {
	moved = c.retireStep(d)
	if !c.haveRec {
		return moved, false
	}
	budget := uint64(c.cfg.FetchWidth)
	space := uint64(c.cfg.ROBSize) - (d.fetch - d.retire)
	if n := min(c.nextOpIdx-d.fetch, budget, space); n > 0 {
		d.fetch += n
		budget -= n
		space -= n
		moved = true
	}
	return moved, budget > 0 && space > 0 && d.fetch == c.nextOpIdx
}

// leap applies up to limit whole cycles to d in closed form and returns
// how many it applied. It covers runs in which every cycle fetches a full
// width of non-memory instructions and retires the same amount: nothing,
// behind an unfinished read at the ROB head, or, with equal widths and at
// least a retire width in flight, a full width of non-memory
// instructions. Such cycles never reach the port.
func (c *Core) leap(d *dry, limit uint64) uint64 {
	fw := uint64(c.cfg.FetchWidth)
	if !c.haveRec || d.fetch+fw > c.nextOpIdx {
		return 0
	}
	k := (c.nextOpIdx - d.fetch) / fw
	inFlight := d.fetch - d.retire
	var rw uint64
	if d.op < len(c.ops) && c.ops[d.op].instrIdx == d.retire &&
		!c.ops[d.op].write && !c.ops[d.op].done {
		k = min(k, (uint64(c.cfg.ROBSize)-inFlight)/fw)
	} else {
		rw = uint64(c.cfg.RetireWidth)
		if rw != fw || inFlight < rw {
			return 0
		}
		if d.op < len(c.ops) {
			k = min(k, (c.ops[d.op].instrIdx-d.retire)/rw)
		}
	}
	k = min(k, limit)
	d.fetch += k * fw
	d.retire += k * rw
	return k
}

func (c *Core) retire(now uint64) {
	budget := uint64(c.cfg.RetireWidth)
	for budget > 0 && c.retireIdx < c.fetchIdx {
		if c.opCount() > 0 && c.frontOp().instrIdx == c.retireIdx {
			op := c.frontOp()
			if !op.write && !op.done {
				break // blocking read at ROB head
			}
			c.ops[c.opHead] = nil
			c.opHead++
			if c.opHead == len(c.ops) {
				c.ops = c.ops[:0]
				c.opHead = 0
			}
			c.putOp(op)
			c.retireIdx++
			budget--
			continue
		}
		// Retire non-memory instructions up to the next memory op or the
		// fetch frontier.
		limit := c.fetchIdx
		if c.opCount() > 0 && c.frontOp().instrIdx < limit {
			limit = c.frontOp().instrIdx
		}
		n := limit - c.retireIdx
		if n > budget {
			n = budget
		}
		if n == 0 {
			break
		}
		c.retireIdx += n
		budget -= n
	}
	if c.Done() && c.finishedAt == 0 {
		c.finishedAt = now
	}
}

func (c *Core) fetch(now uint64) {
	budget := uint64(c.cfg.FetchWidth)
	for budget > 0 && c.haveRec {
		space := uint64(c.cfg.ROBSize) - (c.fetchIdx - c.retireIdx)
		if space == 0 {
			return
		}
		if c.fetchIdx < c.nextOpIdx {
			// Fetch non-memory instructions.
			n := c.nextOpIdx - c.fetchIdx
			if n > budget {
				n = budget
			}
			if n > space {
				n = space
			}
			c.fetchIdx += n
			budget -= n
			continue
		}
		// Fetch the memory access itself.
		op := c.getOp()
		op.instrIdx, op.write, op.addr = c.fetchIdx, c.nextRec.Write, c.nextRec.Addr
		op.done = false
		var onDone func(uint64)
		if !op.write {
			onDone = op.onDoneFn
		}
		if !c.port.Access(op.write, op.addr, now, onDone) {
			c.putOp(op) // rejected ports retain neither the op nor onDone
			return      // back-pressure: retry next cycle
		}
		if op.write {
			op.done = true
		}
		if c.opHead > 0 && len(c.ops) == cap(c.ops) {
			n := copy(c.ops, c.ops[c.opHead:]) // reclaim the retired prefix
			for i := n; i < len(c.ops); i++ {
				c.ops[i] = nil
			}
			c.ops = c.ops[:n]
			c.opHead = 0
		}
		c.ops = append(c.ops, op)
		c.fetchIdx++
		budget--
		c.pull()
	}
}
