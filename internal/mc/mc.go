// Package mc implements a per-bus DRAM memory controller: read and write
// queues, First-Ready First-Come-First-Served (FR-FCFS) scheduling with an
// open-page policy, watermark-based write draining, refresh management and
// the cooperative bandwidth-preallocation policy of Wang et al. (HPCA'17)
// used when an ORAM engine shares a bus with normal applications.
//
// The controller operates in memory-bus cycles; callers convert CPU cycles
// at the boundary (4 CPU cycles per memory cycle for DDR3-1600 under a
// 3.2 GHz core).
package mc

import (
	"fmt"
	"math"

	"doram/internal/addrmap"
	"doram/internal/clock"
	"doram/internal/dram"
	"doram/internal/evtrace"
	"doram/internal/metrics"
	"doram/internal/stats"
)

// OpType distinguishes reads from writes.
type OpType int

// Request operation types.
const (
	OpRead OpType = iota
	OpWrite
)

// String names the operation.
func (o OpType) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// Request is one cache-line transaction presented to a controller.
type Request struct {
	Op     OpType
	Coord  addrmap.Coord
	AppID  int
	Secure bool // issued by an ORAM engine; subject to cooperative sharing

	Arrival uint64 // memory cycle the request entered the queue

	// TraceID ties this request's tracer spans to the access that spawned
	// it; 0 means unsampled (no spans, but IssuedAt is still stamped).
	TraceID uint64
	// IssuedAt is the memory cycle the column command issued, stamped by
	// the controller so completion callbacks can split queue wait from
	// device service. Instant completions (read forwarding, write
	// coalescing) stamp it with the completion cycle: all wait, no service.
	IssuedAt uint64

	// OnComplete, if non-nil, fires once when the request's data transfer
	// finishes (reads: last beat received; writes: last beat written to the
	// device). The done argument is in memory cycles.
	OnComplete func(r *Request, done uint64)
}

// Config tunes a controller.
type Config struct {
	ReadQueueCap   int
	WriteQueueCap  int
	WriteDrainHi   int // start draining writes at this occupancy
	WriteDrainLo   int // stop draining at this occupancy
	StarvationAge  uint64
	CoopThreshold  float64 // ORAM's bandwidth share when contended (0,1)
	CoopStreak     int     // ORAM column issues per preallocation batch
	CoopEnabled    bool
	RefreshEnabled bool
}

// DefaultConfig returns the queue and policy parameters used throughout the
// evaluation (USIMM-like defaults; 50% preallocation per the paper, §IV).
func DefaultConfig() Config {
	return Config{
		ReadQueueCap:   64,
		WriteQueueCap:  64,
		WriteDrainHi:   40,
		WriteDrainLo:   20,
		StarvationAge:  600,
		CoopThreshold:  0.5,
		CoopStreak:     21,
		CoopEnabled:    false,
		RefreshEnabled: true,
	}
}

// QueueStats aggregates controller-level queue behaviour.
type QueueStats struct {
	Enqueued     stats.Counter
	ReadsDone    stats.Counter
	WritesDone   stats.Counter
	ReadRejects  stats.Counter
	WriteRejects stats.Counter
	RowHits      stats.Counter
	RowMisses    stats.Counter
}

type pendingDone struct {
	req  *Request
	done uint64
}

// queued is one queue entry. It holds by value the keys the scheduling
// scan reads for every entry, so a scan stays in the queue's own memory;
// the request itself is dereferenced only for the queue head's arrival
// time, for the entry that issues, and to compare rows too wide for the
// 32-bit key. At sixteen bytes an entry is two pointers wide, which keeps
// the queue arrays (and the garbage their growth leaves) small.
type queued struct {
	req    *Request
	row    int32  // rowKey of the request's row
	bank   uint16 // flat (rank, bank) index into Controller.banks
	secure bool
}

// wideRow is the rowKey of math.MinInt32 and of every row int32 cannot
// hold; entries with it compare rows through the request.
const wideRow = math.MinInt32

// rowKey packs row into 32 bits. Equal keys mean equal rows unless both
// are wideRow.
func rowKey(row int64) int32 {
	if row > math.MinInt32 && row <= math.MaxInt32 {
		return int32(row)
	}
	return wideRow
}

// bankMemo caches one (rank, bank)'s open row and, per command, the
// earliest cycle the command can issue. Channel state changes only when a
// command issues, and between commands every DRAM constraint is a frozen
// timestamp: EarliestIssue is exact and CanIssue is monotone in time, so
// CanIssue(cmd, T) holds exactly when ready[cmd] <= T at every cycle T
// from the one the answer was asked at until the channel's next command.
// Every command the controller issues bumps its generation (see issue),
// which retires the memo; the fields past rank and bank are valid only
// while gen equals the controller's generation.
type bankMemo struct {
	rank, bank int32
	gen        uint64
	open       int64 // open row
	openKey    int32 // rowKey(open)
	known      uint8 // per-command bit: ready[cmd] asked
	ready      [dram.CmdWrite + 1]uint64
}

// rowHit reports whether e's row is open in m's bank.
func (m *bankMemo) rowHit(e *queued) bool {
	return e.row == m.openKey && m.open != dram.RowNone && (e.row != wideRow || e.req.Coord.Row == m.open)
}

// Controller schedules requests onto one dram.Channel.
type Controller struct {
	cfg Config
	ch  *dram.Channel

	readQ  []queued
	writeQ []queued
	// secReads and secWrites count the secure requests in each queue, so
	// the cooperative-preallocation and write-phase checks need no scan.
	secReads, secWrites int

	draining bool

	// Cooperative preallocation state (Wang et al. [39]): when ORAM and
	// normal requests contend, issue slots alternate in coarse batches so
	// ORAM keeps CoopThreshold of the bandwidth but a normal request still
	// waits out part of an ORAM phase streak — the §III-D effect that
	// makes the secure channel slower than normal channels.
	coopSecTurn       bool
	coopCount         int
	secBatch, nsBatch int // coopBatches(cfg)
	// coopDue, when nonzero, is a cycle whose tick would have advanced the
	// preallocation turn but lies inside a quiet window. The update is
	// applied late: by the next tick, or by an Enqueue after coopDue, each
	// before the queues change. It is only deferred when it is its own
	// fixed point, so applying it once late equals applying it every cycle.
	coopDue uint64

	inflight []pendingDone
	// nextDone is the earliest in-flight completion cycle (clock.Never
	// when nothing is in flight): flush returns at once before it.
	nextDone uint64

	// quietUntil caches a sound lower bound on the next cycle scheduling
	// could do anything: quietBound proves every earlier Tick a no-op
	// beyond idle accounting and completion delivery, so Tick skips the
	// scan and NextEvent can fast-forward past the gap. dirty invalidates
	// the bound when an Enqueue changes the queues.
	quietUntil uint64
	dirty      bool

	// banks is the per-(rank, bank) readiness memo, indexed
	// rank*banksPerRank + bank; gen counts the commands issued, the memo's
	// generation (64 bits never wrap).
	banks        []bankMemo
	banksPerRank int
	gen          uint64

	stats QueueStats
	// fullTicks counts the ticks that ran outside a quiet window.
	fullTicks uint64

	// queueWait is an optional metrics histogram of column-issue queueing
	// delay (memory cycles). nil (the default) costs one nil check per
	// issued column.
	queueWait *metrics.Histogram

	// trace is the optional per-request span tracer; nil (the default)
	// costs one nil check per issued column. track is the timeline row
	// spans land on, e.g. "chan0.sub1.mc".
	trace *evtrace.Tracer
	track string
}

// New builds a controller over ch.
func New(ch *dram.Channel, cfg Config) *Controller {
	// gen starts past every memo's zero generation, so the first use of a
	// bank reads it from the channel.
	c := &Controller{cfg: cfg, ch: ch, coopSecTurn: true, nextDone: clock.Never, gen: 1}
	c.secBatch, c.nsBatch = coopBatches(cfg)
	c.banksPerRank = ch.Rank(0).NumBanks()
	n := ch.NumRanks() * c.banksPerRank
	if n > math.MaxUint16+1 {
		panic(fmt.Sprintf("mc: %d banks on one channel, more than a queue entry can index", n))
	}
	c.banks = make([]bankMemo, n)
	for i := range c.banks {
		c.banks[i].rank, c.banks[i].bank = int32(i/c.banksPerRank), int32(i%c.banksPerRank)
	}
	return c
}

// Channel returns the underlying DRAM channel.
func (c *Controller) Channel() *dram.Channel { return c.ch }

// Stats returns queue statistics.
func (c *Controller) Stats() *QueueStats { return &c.stats }

// QueueLen returns current read and write queue occupancies.
func (c *Controller) QueueLen() (reads, writes int) {
	return len(c.readQ), len(c.writeQ)
}

// Draining reports whether the controller is in write-drain mode.
func (c *Controller) Draining() bool { return c.draining }

// FullTicks returns how many ticks ran outside a quiet window: refresh
// management and the scheduling scan, or a refresh holding the slot.
func (c *Controller) FullTicks() uint64 { return c.fullTicks }

// AttachMetrics registers the controller's queue behaviour under prefix
// (e.g. "chan0.sub1.mc."): export-time reads of the existing QueueStats,
// occupancy and drain-state gauges for the timeline, and a queue-wait
// histogram observed on every issued column. No-op on a nil registry.
func (c *Controller) AttachMetrics(r *metrics.Registry, prefix string) {
	if r == nil {
		return
	}
	r.CounterFunc(prefix+"enqueued", c.stats.Enqueued.Value)
	r.CounterFunc(prefix+"reads_done", c.stats.ReadsDone.Value)
	r.CounterFunc(prefix+"writes_done", c.stats.WritesDone.Value)
	r.CounterFunc(prefix+"read_rejects", c.stats.ReadRejects.Value)
	r.CounterFunc(prefix+"write_rejects", c.stats.WriteRejects.Value)
	r.CounterFunc(prefix+"row_hits", c.stats.RowHits.Value)
	r.CounterFunc(prefix+"row_misses", c.stats.RowMisses.Value)
	r.Gauge(prefix+"read_q", metrics.Level(func() int { return len(c.readQ) }))
	r.Gauge(prefix+"write_q", metrics.Level(func() int { return len(c.writeQ) }))
	r.Gauge(prefix+"draining", func(uint64) float64 {
		if c.draining {
			return 1
		}
		return 0
	})
	c.queueWait = r.Histogram(prefix+"queue_wait", []uint64{4, 8, 16, 32, 64, 128, 256, 512})
}

// AttachTracer routes per-request spans to t on the given track: a "wait"
// span covering queue residency and a service span covering the data
// transfer, both in CPU cycles, for every sampled request. No-op on nil.
func (c *Controller) AttachTracer(t *evtrace.Tracer, track string) {
	c.trace = t
	c.track = track
}

// Idle reports whether the controller holds no queued or in-flight work.
func (c *Controller) Idle() bool {
	return len(c.readQ) == 0 && len(c.writeQ) == 0 && len(c.inflight) == 0
}

// Enqueue admits a request at memory cycle now. It returns false when the
// corresponding queue is full; the caller must retry later (modelling
// back-pressure into the core or the BOB packet queue).
func (c *Controller) Enqueue(r *Request, now uint64) bool {
	// A read to a line being written is forwarded from the write queue (the
	// data is already at the controller); a write to it coalesces.
	if c.writePending(r.Coord) {
		r.Arrival = now
		c.stats.Enqueued.Inc()
		c.complete(r, now)
		return true
	}
	e := queued{req: r, row: rowKey(r.Coord.Row), bank: c.flatBank(r.Coord), secure: r.Secure}
	switch r.Op {
	case OpRead:
		if len(c.readQ) >= c.cfg.ReadQueueCap {
			c.stats.ReadRejects.Inc()
			return false
		}
		c.settleCoop(now)
		c.readQ = append(c.readQ, e)
		if r.Secure {
			c.secReads++
		}
	case OpWrite:
		if len(c.writeQ) >= c.cfg.WriteQueueCap {
			c.stats.WriteRejects.Inc()
			return false
		}
		c.settleCoop(now)
		c.writeQ = append(c.writeQ, e)
		if r.Secure {
			c.secWrites++
		}
	}
	r.Arrival = now
	c.dirty = true
	c.stats.Enqueued.Inc()
	return true
}

// flatBank returns at's index into the bank memo.
func (c *Controller) flatBank(at addrmap.Coord) uint16 {
	return uint16(at.Rank*c.banksPerRank + at.Bank)
}

// writePending reports whether the write queue holds a write to at.
func (c *Controller) writePending(at addrmap.Coord) bool {
	bank, row := c.flatBank(at), rowKey(at.Row)
	for i := range c.writeQ {
		if w := &c.writeQ[i]; w.bank == bank && w.row == row && w.req.Coord == at {
			return true
		}
	}
	return false
}

// complete fires the completion callback and counts the request.
func (c *Controller) complete(r *Request, done uint64) {
	if r.IssuedAt == 0 {
		// Instant completion (forwarded read / coalesced write) or a
		// column issued at memory cycle 0: attribute the whole interval
		// to queueing so stage breakdowns still telescope.
		r.IssuedAt = done
	}
	if r.Op == OpRead {
		c.stats.ReadsDone.Inc()
	} else {
		c.stats.WritesDone.Inc()
	}
	if r.OnComplete != nil {
		r.OnComplete(r, done)
	}
}

// Tick advances the controller by one memory cycle. It delivers finished
// transfers, manages refresh, selects at most one DRAM command via FR-FCFS
// and updates drain/cooperation state.
//
// Inside a quiet window (see quietBound) the scheduling scan is skipped:
// the tick only delivers completions that fall due and does the per-cycle
// accounting. A window opens after any fully-executed tick that did not
// spend its slot on refresh and after which the next tick would leave the
// drain latch as it is — whether or not the tick issued a command, and
// whether or not any work is queued: an idle controller's window lasts
// until the next refresh deadline. An Enqueue, including one made from a
// completion callback, closes it.
func (c *Controller) Tick(now uint64) {
	c.flush(now)

	// A deferred preallocation update lands on the first tick after
	// coopDue, or on a tick at coopDue that skips the scan: the scans it
	// stands in for would have made it. A scan at coopDue makes it itself,
	// unless refresh takes the slot, in which case no update happens.
	quiet := !c.dirty && now < c.quietUntil
	if c.coopDue != 0 {
		if quiet || now > c.coopDue {
			c.coopSecTurn, c.coopCount = c.coopStep(c.coopSecTurn, c.coopCount)
		}
		c.coopDue = 0
	}
	if quiet {
		c.ch.EndCycle()
		return
	}
	c.dirty = false
	c.quietUntil = 0
	c.fullTicks++

	c.draining = c.drainModeAt(now)

	refreshUsed := c.refreshTick(now)
	if !refreshUsed {
		c.scheduleTick(now)
	}
	c.ch.EndCycle()

	// Refresh pressure holds or spends the slot until the REF starts, and
	// the bound counts only future refresh deadlines, so those ticks never
	// open a window. Nor does a drain latch the next tick would flip: the
	// per-cycle loop changes it there, visibly.
	if !refreshUsed && c.drainModeAt(now+1) == c.draining && c.deferCoop(now+1) {
		c.quietUntil = c.quietBound(now)
	}
}

// NextEvent reports the earliest memory cycle strictly after now at which
// a Tick can change observable state, or clock.Never when the controller
// is fully drained and refresh is disabled (only a new Enqueue can create
// work, and enqueues happen on cycles the caller already visits).
//
// With queued work the horizon is the earlier of the cached quiet bound,
// when one is in force, and the earliest in-flight completion; without a
// bound it is the very next cycle. The one-tick settling of the drain and
// cooperation latches after their queues empty also demands the next
// cycle, so latch state (and the "draining" metrics gauge) matches the
// per-cycle loop exactly. Otherwise the horizon is the earliest in-flight
// completion or refresh deadline.
func (c *Controller) NextEvent(now uint64) uint64 {
	done := c.nextDone
	if done <= now {
		done = now + 1
	}
	if len(c.readQ) > 0 || len(c.writeQ) > 0 {
		if !c.dirty && c.quietUntil > now+1 {
			return min(c.quietUntil, done)
		}
		return now + 1
	}
	// The drain latch clears one tick after the write queue empties;
	// coopUpdate likewise resets the preallocation turn the first tick it
	// sees a one-sided (here: empty) queue pair. Let those ticks run so
	// latch state matches the per-cycle loop exactly.
	if c.draining {
		return now + 1
	}
	if c.cfg.CoopEnabled && (c.coopSecTurn || c.coopCount != 0) {
		return now + 1
	}
	next := done
	if c.cfg.RefreshEnabled {
		for rank := 0; rank < c.ch.NumRanks(); rank++ {
			t := c.ch.NextRefreshDue(rank)
			if t <= now {
				t = now + 1
			}
			if t < next {
				next = t
			}
		}
	}
	return next
}

// Skip accounts n elided idle memory cycles: the channel's utilization
// denominator that Tick would have advanced on each. Callers must only
// skip cycles where NextEvent proved Tick a no-op beyond this accounting.
func (c *Controller) Skip(n uint64) { c.ch.Skip(n) }

// quietBound returns a sound lower bound on the next memory cycle at which
// a scheduling scan could do anything. It is computed after a full tick at
// now that did not spend the slot on refresh, issued a command or not,
// when the next tick would leave the drain latch as it is and any change
// to the preallocation turn can be deferred (see deferCoop). Between
// issues every DRAM constraint is a frozen absolute timestamp, so the
// earliest future state change is the minimum over: each queued request's
// next legal DRAM command (the one FR-FCFS would attempt given current
// bank state), starvation-age triggers (which flip forced-oldest
// scheduling and the aged write drain), and refresh deadlines.
// Preallocation turns only advance on issues, and enqueues set the dirty
// flag, so neither can change inside the bound; requests of a class the
// turn blocks are left out. In-flight completions do not end the window:
// delivering them touches no scheduling state, so NextEvent reports them
// separately and Tick delivers them without a scan. The bound may be
// conservative, never late. Its timing reads land in the readiness memo,
// so the scan that ends the window reuses them.
func (c *Controller) quietBound(now uint64) uint64 {
	// Inside the window the queues and latches stay as they are, so a
	// class the scan skips stays skipped. Drain mode unblocks normal
	// requests in both queues, and the opportunistic write attempt behind
	// a read queue unblocks normal writes.
	turn, _ := c.coopStep(c.coopSecTurn, c.coopCount)
	blockSecure, blockNormal := c.coopBlocks(turn)
	blockNormal = blockNormal && !c.draining
	next := c.queueBound(c.readQ, dram.CmdRead, blockSecure, blockNormal, now, clock.Never)
	next = c.queueBound(c.writeQ, dram.CmdWrite, blockSecure, blockNormal && len(c.readQ) == 0, now, next)
	if c.cfg.RefreshEnabled {
		for rank := 0; rank < c.ch.NumRanks(); rank++ {
			if t := c.ch.NextRefreshDue(rank); t > now && t < next {
				next = t
			}
		}
	}
	return next
}

// queueBound lowers next to the earliest cycle after now at which the
// scan could act on q: the next legal command of each entry not in a
// blocked class, and the cycle the starvation guard takes over. The head
// counts regardless of class only once it has starved and the guard
// serves it; before that, the guard's takeover cycle bounds it.
func (c *Controller) queueBound(q []queued, col dram.Command, blockSecure, blockNormal bool, now, next uint64) uint64 {
	if len(q) == 0 || next == now+1 {
		return next
	}
	deadline := q[0].req.Arrival + c.cfg.StarvationAge // the head starves after it
	if t := deadline + 1; t > now && t < next {
		next = t
	}
	guarded := now > deadline
	for i := range q {
		e := &q[i]
		if (i > 0 || !guarded) && (e.secure && blockSecure || !e.secure && blockNormal) {
			continue
		}
		m := c.bankState(e.bank)
		cmd := dram.CmdPrecharge
		switch {
		case m.open == dram.RowNone:
			cmd = dram.CmdActivate
		case m.rowHit(e):
			cmd = col
		}
		if t := max(c.readyAt(m, cmd, now+1), now+1); t < next {
			if t == now+1 {
				return t // no bound is earlier
			}
			next = t
		}
	}
	return next
}

// bankState returns flat bank b's memo, reset if the channel has issued a
// command since it was filled.
func (c *Controller) bankState(b uint16) *bankMemo {
	m := &c.banks[b]
	if m.gen != c.gen {
		m.gen, m.known = c.gen, 0
		m.open = c.ch.OpenRow(int(m.rank), int(m.bank))
		m.openKey = rowKey(m.open)
	}
	return m
}

// readyAt returns the earliest cycle from from on at which cmd can issue
// on m's bank, asked of the channel once per command the controller
// issues; a remembered answer may precede from, and then cmd can issue
// at from. Activates and precharges ignore the row and column commands
// are only asked for the open row, so one answer serves every entry.
func (c *Controller) readyAt(m *bankMemo, cmd dram.Command, from uint64) uint64 {
	if m.known&(1<<cmd) != 0 {
		return m.ready[cmd]
	}
	return c.askReady(m, cmd, from)
}

// askReady fills m's answer for cmd from cycle from.
func (c *Controller) askReady(m *bankMemo, cmd dram.Command, from uint64) uint64 {
	m.known |= 1 << cmd
	m.ready[cmd] = c.ch.EarliestIssue(cmd, int(m.rank), int(m.bank), m.open, from)
	return m.ready[cmd]
}

// canIssue reports whether cmd can issue on m's bank at now.
func (c *Controller) canIssue(m *bankMemo, cmd dram.Command, now uint64) bool {
	if m.known&(1<<cmd) == 0 {
		c.askReady(m, cmd, now)
	}
	return m.ready[cmd] <= now
}

// issue issues cmd on the channel and retires the readiness memo, whose
// answers all predate the command. Every command the controller issues
// goes through it.
func (c *Controller) issue(cmd dram.Command, rank, bank int, row int64, now uint64) uint64 {
	c.gen++
	return c.ch.Issue(cmd, rank, bank, row, now)
}

// flush delivers completions whose data transfer has finished.
func (c *Controller) flush(now uint64) {
	if now < c.nextDone {
		return
	}
	next := clock.Never
	keep := c.inflight[:0]
	for _, p := range c.inflight {
		if p.done <= now {
			c.complete(p.req, p.done)
		} else {
			keep = append(keep, p)
			next = min(next, p.done)
		}
	}
	c.inflight = keep
	c.nextDone = next
}

// drainModeAt returns the drain latch a tick at now would leave.
func (c *Controller) drainModeAt(now uint64) bool {
	// Age guard: a write stuck beyond the starvation age forces a drain
	// even below the watermark, so writes on a busy channel cannot age
	// without bound.
	aged := len(c.writeQ) > 0 && now-c.writeQ[0].req.Arrival > c.cfg.StarvationAge
	switch {
	case len(c.writeQ) >= c.cfg.WriteDrainHi || aged:
		return true
	case len(c.writeQ) <= c.cfg.WriteDrainLo:
		return false
	}
	return c.draining
}

// deferCoop arranges for the preallocation update a tick at due would
// make to be applied late, and reports whether it could: an update that
// is not its own fixed point must run on every cycle.
func (c *Controller) deferCoop(due uint64) bool {
	if !c.cfg.CoopEnabled {
		return true
	}
	turn, count := c.coopStep(c.coopSecTurn, c.coopCount)
	if turn == c.coopSecTurn && count == c.coopCount {
		return true
	}
	if t, n := c.coopStep(turn, count); t != turn || n != count {
		return false
	}
	c.coopDue = due
	return true
}

// settleCoop applies a deferred preallocation update before the queues
// change at now. A tick at coopDue would have applied it to the queues as
// they were; when now is not past coopDue, the tick at coopDue sees the
// change and applies the update itself.
func (c *Controller) settleCoop(now uint64) {
	if c.coopDue != 0 && now > c.coopDue {
		c.coopSecTurn, c.coopCount = c.coopStep(c.coopSecTurn, c.coopCount)
	}
	c.coopDue = 0
}

// refreshTick handles rank refresh pressure. It returns true when it used
// this cycle's command slot.
func (c *Controller) refreshTick(now uint64) bool {
	if !c.cfg.RefreshEnabled {
		return false
	}
	for rank := 0; rank < c.ch.NumRanks(); rank++ {
		if !c.ch.RefreshPressure(rank, now) {
			continue
		}
		if c.ch.CanIssue(dram.CmdRefresh, rank, 0, 0, now) {
			c.issue(dram.CmdRefresh, rank, 0, 0, now)
			return true
		}
		// Close open banks so the refresh can start.
		for bank := 0; bank < c.ch.Rank(rank).NumBanks(); bank++ {
			if c.ch.OpenRow(rank, bank) != dram.RowNone &&
				c.ch.CanIssue(dram.CmdPrecharge, rank, bank, 0, now) {
				c.issue(dram.CmdPrecharge, rank, bank, 0, now)
				return true
			}
		}
		// Refresh pending but nothing issuable this cycle; hold the slot so
		// new activates do not push the refresh out indefinitely.
		return true
	}
	return false
}

// secureWritePhase reports whether the ORAM engine's pending work on this
// channel is its write phase: secure writes queued with no secure reads.
// Under cooperative preallocation those writes own ORAM's issue share and
// must not starve behind normal reads, or the ORAM access never completes
// and its interference vanishes.
func (c *Controller) secureWritePhase() bool {
	return c.secReads == 0 && c.secWrites > 0
}

// scheduleTick picks and issues at most one command under FR-FCFS.
func (c *Controller) scheduleTick(now uint64) {
	blockSecure, blockNormal := c.coopUpdate()
	// An ORAM write phase is critical path for the ORAM engine (the next
	// access waits on it), not a lazy writeback: serve it ahead of reads
	// unless cooperative preallocation says it is the normal traffic's
	// turn. Without preallocation (the Path ORAM baseline) this is what
	// lets ORAM hog the channel through both phases.
	if !blockSecure && c.secureWritePhase() &&
		c.tryIssueQueue(c.writeQ, dram.CmdWrite, now, blockSecure, blockNormal) {
		return
	}
	primary, secondary := c.readQ, c.writeQ
	primaryOp, secondaryOp := dram.CmdRead, dram.CmdWrite
	if c.draining || len(c.readQ) == 0 {
		primary, secondary = c.writeQ, c.readQ
		primaryOp, secondaryOp = dram.CmdWrite, dram.CmdRead
		// Drain mode is back-pressure relief: normal writes must go even
		// during an ORAM batch, or the queue wedges and rejects stall the
		// cores.
		if c.draining {
			blockNormal = false
		}
	}
	if c.tryIssueQueue(primary, primaryOp, now, blockSecure, blockNormal) {
		return
	}
	// The primary direction made no progress at all this cycle (empty, or
	// every candidate blocked by timing): spend the slot on the other
	// direction. This opportunistic drain keeps the write queue shallow
	// and avoids long read blackouts when the high watermark trips.
	// Normal writes are never class-blocked here — they are background
	// work filling an otherwise wasted slot.
	if secondaryOp == dram.CmdWrite {
		blockNormal = false
	}
	c.tryIssueQueue(secondary, secondaryOp, now, blockSecure, blockNormal)
}

// coopBatches returns the batch lengths realizing CoopThreshold: secure
// issues secBatch columns, then normal traffic issues nsBatch, so ORAM's
// contended share is secBatch/(secBatch+nsBatch) = CoopThreshold.
func coopBatches(cfg Config) (secBatch, nsBatch int) {
	secBatch = cfg.CoopStreak
	thr := cfg.CoopThreshold
	nsBatch = int(float64(secBatch)*(1-thr)/thr + 0.5)
	if nsBatch < 1 {
		nsBatch = 1
	}
	return secBatch, nsBatch
}

// coopUpdate advances the preallocation turn once per cycle. It returns
// which class is blocked this cycle.
func (c *Controller) coopUpdate() (blockSecure, blockNormal bool) {
	if !c.cfg.CoopEnabled {
		return false, false
	}
	c.coopSecTurn, c.coopCount = c.coopStep(c.coopSecTurn, c.coopCount)
	return c.coopBlocks(c.coopSecTurn)
}

// coopBlocks returns which class the preallocation turn secTurn blocks:
// neither unless both classes are pending.
func (c *Controller) coopBlocks(secTurn bool) (blockSecure, blockNormal bool) {
	if !c.cfg.CoopEnabled || !c.contended() {
		return false, false
	}
	return !secTurn, secTurn
}

// contended reports whether both secure and normal requests are queued.
func (c *Controller) contended() bool {
	secure := c.secReads + c.secWrites
	return secure > 0 && len(c.readQ)+len(c.writeQ) > secure
}

// coopStep returns the preallocation turn and batch count a tick would
// leave after (secTurn, count), looking at both queues (the ORAM engine's
// pending work may be all-writes during its write phase). When only one
// class is pending it runs freely and keeps a fresh batch, so a newly
// arriving request of the other class waits out the full current batch —
// the residual interference §III-D measures.
func (c *Controller) coopStep(secTurn bool, count int) (bool, int) {
	if !c.contended() {
		return c.secReads+c.secWrites > 0, 0
	}
	switch {
	case secTurn && count >= c.secBatch:
		return false, 0
	case !secTurn && count >= c.nsBatch:
		return true, 0
	}
	return secTurn, count
}

// chargeIssue advances the preallocation batch after a column issue for r.
func (c *Controller) chargeIssue(r *Request) {
	if !c.cfg.CoopEnabled {
		return
	}
	if r.Secure == c.coopSecTurn {
		c.coopCount++
	}
}

// tryIssueQueue attempts FR-FCFS on one queue in a single age-ordered
// pass. It returns true if any command (column access, activate or
// precharge) was issued.
func (c *Controller) tryIssueQueue(q []queued, col dram.Command, now uint64, blockSecure, blockNormal bool) bool {
	if len(q) == 0 {
		return false
	}
	// Starvation guard: if the oldest request is too old, service it
	// strictly first.
	if now-q[0].req.Arrival > c.cfg.StarvationAge {
		e := &q[0]
		m := c.bankState(e.bank)
		switch {
		case m.open == dram.RowNone:
			return c.tryBankCommand(m, dram.CmdActivate, e, now)
		case !m.rowHit(e):
			return c.tryBankCommand(m, dram.CmdPrecharge, e, now)
		case c.canIssue(m, col, now):
			c.issueColumn(col, 0, now)
			return true
		}
		// Row open and correct but column blocked by timing; wait, and do
		// not let younger requests steal the slot.
		return false
	}

	// First choice: the first ready row hit in age order. Failing that,
	// progress the oldest eligible request's bank: the first entry whose
	// activate or precharge can issue, noted on the way.
	progress := -1
	var progressCmd dram.Command
	for i := range q {
		e := &q[i]
		if e.secure && blockSecure || !e.secure && blockNormal {
			continue
		}
		m := c.bankState(e.bank)
		switch {
		case m.rowHit(e):
			if c.canIssue(m, col, now) {
				c.issueColumn(col, i, now)
				return true
			}
		case progress >= 0:
		case m.open == dram.RowNone:
			if c.canIssue(m, dram.CmdActivate, now) {
				progress, progressCmd = i, dram.CmdActivate
			}
		default:
			if c.canIssue(m, dram.CmdPrecharge, now) {
				progress, progressCmd = i, dram.CmdPrecharge
			}
		}
	}
	if progress < 0 {
		return false
	}
	e := &q[progress]
	return c.tryBankCommand(&c.banks[e.bank], progressCmd, e, now)
}

// tryBankCommand issues an activate of e's row or a precharge on m's bank
// if the channel allows it now; a precharge closes a row e needs, which
// counts as a row miss.
func (c *Controller) tryBankCommand(m *bankMemo, cmd dram.Command, e *queued, now uint64) bool {
	if !c.canIssue(m, cmd, now) {
		return false
	}
	if cmd == dram.CmdActivate {
		c.issue(cmd, int(m.rank), int(m.bank), e.req.Coord.Row, now)
		return true
	}
	c.issue(cmd, int(m.rank), int(m.bank), 0, now)
	c.stats.RowMisses.Inc()
	return true
}

// issueColumn issues the RD/WR for the request at index i of col's queue,
// removes it and tracks its completion.
func (c *Controller) issueColumn(col dram.Command, i int, now uint64) {
	q, sec := &c.readQ, &c.secReads
	if col == dram.CmdWrite {
		q, sec = &c.writeQ, &c.secWrites
	}
	r := (*q)[i].req
	done := c.issue(col, r.Coord.Rank, r.Coord.Bank, r.Coord.Row, now)
	c.stats.RowHits.Inc()
	c.queueWait.Observe(now - r.Arrival)
	r.IssuedAt = now
	if c.trace != nil && r.TraceID != 0 {
		cat := "ns"
		if r.Secure {
			cat = "oram"
		}
		c.trace.EmitOverlap(c.track, cat, "wait", r.TraceID,
			clock.ToCPU(r.Arrival), clock.ToCPU(now), 0)
		c.trace.EmitOverlap(c.track, cat, r.Op.String(), r.TraceID,
			clock.ToCPU(now), clock.ToCPU(done), 0)
	}
	c.chargeIssue(r)
	*q = append((*q)[:i], (*q)[i+1:]...)
	if r.Secure {
		*sec--
	}
	c.inflight = append(c.inflight, pendingDone{req: r, done: done})
	c.nextDone = min(c.nextDone, done)
}
