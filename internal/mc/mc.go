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

// Policy selects the scheduling algorithm.
type Policy int

// Scheduling policies (the axis the Memory Scheduling Championship that
// produced the paper's workloads explores).
const (
	// FRFCFS is First-Ready FCFS: ready row hits first, then oldest-first
	// bank progress under an open-page policy. USIMM's reference
	// scheduler and the evaluation default.
	FRFCFS Policy = iota
	// FCFS serves strictly in arrival order: no row-hit reordering.
	FCFS
	// ClosePage is FR-FCFS with an auto-precharge after every column
	// access: no open rows are left behind, trading row-hit locality for
	// predictable conflict latency.
	ClosePage
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case FRFCFS:
		return "fr-fcfs"
	case FCFS:
		return "fcfs"
	case ClosePage:
		return "close-page"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config tunes a controller.
type Config struct {
	Policy         Policy
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
	Enqueued      stats.Counter
	ReadsDone     stats.Counter
	WritesDone    stats.Counter
	ReadRejects   stats.Counter
	WriteRejects  stats.Counter
	RowHits       stats.Counter
	RowMisses     stats.Counter
	QueueOccupied stats.Utilization // read queue occupancy integral
}

type pendingDone struct {
	req  *Request
	done uint64
}

// Controller schedules requests onto one dram.Channel.
type Controller struct {
	cfg Config
	ch  *dram.Channel

	readQ  []*Request
	writeQ []*Request

	draining bool

	// Cooperative preallocation state (Wang et al. [39]): when ORAM and
	// normal requests contend, issue slots alternate in coarse batches so
	// ORAM keeps CoopThreshold of the bandwidth but a normal request still
	// waits out part of an ORAM phase streak — the §III-D effect that
	// makes the secure channel slower than normal channels.
	coopSecTurn bool
	coopCount   int

	// pendingClose holds banks awaiting the explicit precharge the
	// close-page policy issues after every column access.
	pendingClose []addrmap.Coord

	inflight []pendingDone

	// quietUntil caches a sound lower bound on the next cycle scheduling
	// could do anything: when a fully-executed Tick issues nothing,
	// quietBound proves every earlier Tick a no-op beyond idle accounting,
	// so Tick short-circuits and NextEvent can fast-forward past the gap.
	// dirty invalidates the bound when an Enqueue changes the queues.
	quietUntil uint64
	dirty      bool

	stats QueueStats

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
	return &Controller{cfg: cfg, ch: ch, coopSecTurn: true}
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
	switch r.Op {
	case OpRead:
		// Forward from the write queue when the line is being written:
		// the data is already at the controller.
		for _, w := range c.writeQ {
			if w.Coord == r.Coord {
				r.Arrival = now
				c.stats.Enqueued.Inc()
				c.complete(r, now)
				return true
			}
		}
		if len(c.readQ) >= c.cfg.ReadQueueCap {
			c.stats.ReadRejects.Inc()
			return false
		}
		r.Arrival = now
		c.readQ = append(c.readQ, r)
	case OpWrite:
		// Coalesce a write to a line already pending in the write queue.
		for _, w := range c.writeQ {
			if w.Coord == r.Coord {
				r.Arrival = now
				c.stats.Enqueued.Inc()
				c.complete(r, now)
				return true
			}
		}
		if len(c.writeQ) >= c.cfg.WriteQueueCap {
			c.stats.WriteRejects.Inc()
			return false
		}
		r.Arrival = now
		c.writeQ = append(c.writeQ, r)
	}
	c.dirty = true
	c.stats.Enqueued.Inc()
	return true
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

// Tick advances the controller by one memory cycle. It flushes finished
// transfers, manages refresh, selects at most one DRAM command via FR-FCFS
// and updates drain/cooperation state.
func (c *Controller) Tick(now uint64) {
	c.flush(now)
	c.stats.QueueOccupied.AddBusy(uint64(len(c.readQ)))
	c.stats.QueueOccupied.AddTotal(uint64(c.cfg.ReadQueueCap))

	// Inside a proven-quiet window the full tick below is a no-op beyond
	// the accounting above: skip the scheduling scan entirely.
	if !c.dirty && now < c.quietUntil {
		c.ch.EndCycle()
		return
	}
	c.dirty = false
	c.quietUntil = 0

	c.updateDrainMode(now)

	refreshUsed := c.refreshTick(now)
	if !refreshUsed {
		c.scheduleTick(now)
	}
	issued := c.ch.IssuedThisCycle()
	c.ch.EndCycle()

	// A fully-executed tick that used no command slot proves the scheduler
	// stuck on timing: cache how long that lasts. Issues and refresh
	// pressure invalidate everything the bound relies on, so only the
	// do-nothing path caches.
	if !refreshUsed && !issued &&
		(len(c.readQ) > 0 || len(c.writeQ) > 0 || len(c.pendingClose) > 0) {
		c.quietUntil = c.quietBound(now)
	}
}

// NextEvent reports the earliest memory cycle strictly after now at which
// a Tick can change observable state, or clock.Never when the controller
// is fully drained and refresh is disabled (only a new Enqueue can create
// work, and enqueues happen on cycles the caller already visits).
//
// With queued work the horizon is the cached quiet bound when one is in
// force — the scheduler just proved no command can issue before it — and
// the very next cycle otherwise. The one-tick settling of the drain and
// cooperation latches after their queues empty also demands the next
// cycle, so latch state (and the "draining" metrics gauge) matches the
// per-cycle loop exactly. Otherwise the horizon is the earliest in-flight
// completion or refresh deadline.
func (c *Controller) NextEvent(now uint64) uint64 {
	if len(c.readQ) > 0 || len(c.writeQ) > 0 || len(c.pendingClose) > 0 {
		if !c.dirty && c.quietUntil > now+1 {
			return c.quietUntil
		}
		return now + 1
	}
	// updateDrainMode clears the drain latch one tick after the write
	// queue empties; coopUpdate likewise resets the preallocation turn the
	// first tick it sees a one-sided (here: empty) queue pair. Let those
	// ticks run so latch state matches the per-cycle loop exactly.
	if c.draining {
		return now + 1
	}
	if c.cfg.CoopEnabled && (c.coopSecTurn || c.coopCount != 0) {
		return now + 1
	}
	next := clock.Never
	for _, p := range c.inflight {
		t := p.done
		if t <= now {
			t = now + 1
		}
		if t < next {
			next = t
		}
	}
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

// Skip accounts n elided idle memory cycles: the queue-occupancy integral
// and the channel's utilization denominator that Tick would have advanced
// on each. Callers must only skip cycles where NextEvent proved Tick a
// no-op beyond this accounting.
func (c *Controller) Skip(n uint64) {
	c.stats.QueueOccupied.AddBusy(uint64(len(c.readQ)) * n)
	c.stats.QueueOccupied.AddTotal(uint64(c.cfg.ReadQueueCap) * n)
	c.ch.Skip(n)
}

// quietBound returns a sound lower bound on the next memory cycle at which
// Tick could do anything beyond idle accounting, given that the scheduler
// just ran at now and issued nothing. Between issues every DRAM constraint
// is a frozen absolute timestamp, so the earliest future state change is
// the minimum over: each queued request's next legal DRAM command (the one
// FR-FCFS would attempt given current bank state), pending close-page
// precharges, starvation-age triggers (which flip forced-oldest scheduling
// and the aged write drain), in-flight completions, and refresh deadlines.
// Cooperative-preallocation turns only advance on issues, and enqueues set
// the dirty flag, so neither can change inside the bound. The bound may be
// conservative (blocked classes are treated as eligible), never late.
func (c *Controller) quietBound(now uint64) uint64 {
	next := clock.Never
	add := func(t uint64) {
		if t < next {
			next = t
		}
	}
	cand := func(r *Request, col dram.Command) {
		rank, bank, row := r.Coord.Rank, r.Coord.Bank, r.Coord.Row
		switch open := c.ch.OpenRow(rank, bank); {
		case open == row && open != dram.RowNone:
			add(c.ch.NextCanIssue(col, rank, bank, row, now))
		case open == dram.RowNone:
			add(c.ch.NextCanIssue(dram.CmdActivate, rank, bank, row, now))
		default:
			add(c.ch.NextCanIssue(dram.CmdPrecharge, rank, bank, 0, now))
		}
	}
	for _, r := range c.readQ {
		cand(r, dram.CmdRead)
	}
	for _, r := range c.writeQ {
		cand(r, dram.CmdWrite)
	}
	for _, coord := range c.pendingClose {
		open := c.ch.OpenRow(coord.Rank, coord.Bank)
		if open != dram.RowNone && open == coord.Row {
			add(c.ch.NextCanIssue(dram.CmdPrecharge, coord.Rank, coord.Bank, 0, now))
		}
	}
	if len(c.readQ) > 0 {
		if t := c.readQ[0].Arrival + c.cfg.StarvationAge + 1; t > now {
			add(t)
		}
	}
	if len(c.writeQ) > 0 {
		if t := c.writeQ[0].Arrival + c.cfg.StarvationAge + 1; t > now {
			add(t)
		}
	}
	for _, p := range c.inflight {
		t := p.done
		if t <= now {
			t = now + 1
		}
		add(t)
	}
	if c.cfg.RefreshEnabled {
		for rank := 0; rank < c.ch.NumRanks(); rank++ {
			if t := c.ch.NextRefreshDue(rank); t > now {
				add(t)
			}
		}
	}
	return next
}

// flush delivers completions whose data transfer has finished.
func (c *Controller) flush(now uint64) {
	keep := c.inflight[:0]
	for _, p := range c.inflight {
		if p.done <= now {
			c.complete(p.req, p.done)
		} else {
			keep = append(keep, p)
		}
	}
	c.inflight = keep
}

func (c *Controller) updateDrainMode(now uint64) {
	// Age guard: a write stuck beyond the starvation age forces a drain
	// even below the watermark, so writes on a busy channel cannot age
	// without bound.
	aged := len(c.writeQ) > 0 && now-c.writeQ[0].Arrival > c.cfg.StarvationAge
	switch {
	case len(c.writeQ) >= c.cfg.WriteDrainHi || aged:
		c.draining = true
	case len(c.writeQ) <= c.cfg.WriteDrainLo:
		c.draining = false
	}
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
			c.ch.Issue(dram.CmdRefresh, rank, 0, 0, now)
			return true
		}
		// Close open banks so the refresh can start.
		for bank := 0; bank < c.ch.Rank(rank).NumBanks(); bank++ {
			if c.ch.OpenRow(rank, bank) != dram.RowNone &&
				c.ch.CanIssue(dram.CmdPrecharge, rank, bank, 0, now) {
				c.ch.Issue(dram.CmdPrecharge, rank, bank, 0, now)
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
	for _, r := range c.readQ {
		if r.Secure {
			return false
		}
	}
	for _, r := range c.writeQ {
		if r.Secure {
			return true
		}
	}
	return false
}

// scheduleTick picks and issues at most one command under the configured
// policy.
func (c *Controller) scheduleTick(now uint64) {
	blockSecure, blockNormal := c.coopUpdate()
	if c.cfg.Policy == ClosePage && c.closeTick(now) {
		return
	}
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
func (c *Controller) coopBatches() (secBatch, nsBatch int) {
	secBatch = c.cfg.CoopStreak
	thr := c.cfg.CoopThreshold
	nsBatch = int(float64(secBatch)*(1-thr)/thr + 0.5)
	if nsBatch < 1 {
		nsBatch = 1
	}
	return secBatch, nsBatch
}

// coopUpdate advances the preallocation turn once per cycle, looking at
// both queues (the ORAM engine's pending work may be all-writes during its
// write phase). It returns which class is blocked this cycle. When only
// one class is pending it runs freely and keeps a fresh batch, so a newly
// arriving request of the other class waits out the full current batch —
// the residual interference §III-D measures.
func (c *Controller) coopUpdate() (blockSecure, blockNormal bool) {
	if !c.cfg.CoopEnabled {
		return false, false
	}
	var haveSec, haveNS bool
	scan := func(q []*Request) {
		for _, r := range q {
			if r.Secure {
				haveSec = true
			} else {
				haveNS = true
			}
			if haveSec && haveNS {
				return
			}
		}
	}
	scan(c.readQ)
	if !haveSec || !haveNS {
		scan(c.writeQ)
	}
	if !haveSec || !haveNS {
		c.coopSecTurn = haveSec
		c.coopCount = 0
		return false, false
	}
	secBatch, nsBatch := c.coopBatches()
	if c.coopSecTurn && c.coopCount >= secBatch {
		c.coopSecTurn, c.coopCount = false, 0
	} else if !c.coopSecTurn && c.coopCount >= nsBatch {
		c.coopSecTurn, c.coopCount = true, 0
	}
	return !c.coopSecTurn, c.coopSecTurn
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

// tryIssueQueue attempts FR-FCFS on one queue. It returns true if any
// command (column access, activate or precharge) was issued.
func (c *Controller) tryIssueQueue(q []*Request, col dram.Command, now uint64, blockSecure, blockNormal bool) bool {
	if len(q) == 0 {
		return false
	}
	blocked := func(r *Request) bool {
		if r.Secure {
			return blockSecure
		}
		return blockNormal
	}

	// Starvation guard: if the oldest request is too old, service it
	// strictly first. FCFS behaves as if every request were starved:
	// strict arrival order, no row-hit reordering (and no cooperative
	// reordering either — FCFS is the undecorated comparison point).
	oldest := q[0]
	forceOldest := c.cfg.Policy == FCFS || now-oldest.Arrival > c.cfg.StarvationAge

	// Pass 1: first ready row hit in age order.
	if !forceOldest {
		for _, r := range q {
			if blocked(r) {
				continue
			}
			if c.ch.CanIssue(col, r.Coord.Rank, r.Coord.Bank, r.Coord.Row, now) {
				c.issueColumn(r, col, now)
				return true
			}
		}
	}

	// Pass 2: progress the oldest eligible request's bank.
	for _, r := range q {
		if blocked(r) && !forceOldest {
			continue
		}
		rank, bank, row := r.Coord.Rank, r.Coord.Bank, r.Coord.Row
		open := c.ch.OpenRow(rank, bank)
		switch {
		case open == dram.RowNone:
			if c.ch.CanIssue(dram.CmdActivate, rank, bank, row, now) {
				c.ch.Issue(dram.CmdActivate, rank, bank, row, now)
				return true
			}
		case open != row:
			if c.ch.CanIssue(dram.CmdPrecharge, rank, bank, 0, now) {
				c.ch.Issue(dram.CmdPrecharge, rank, bank, 0, now)
				c.stats.RowMisses.Inc()
				return true
			}
		default:
			if forceOldest && c.ch.CanIssue(col, rank, bank, row, now) {
				c.issueColumn(r, col, now)
				return true
			}
			// Row open and correct but column blocked by timing; wait.
		}
		if forceOldest {
			// Strictly serve the oldest; do not let younger requests
			// steal the slot while it is force-prioritized.
			return false
		}
	}
	return false
}

// issueColumn issues the RD/WR for r, removes it from its queue and tracks
// its completion.
func (c *Controller) issueColumn(r *Request, col dram.Command, now uint64) {
	done := c.ch.Issue(col, r.Coord.Rank, r.Coord.Bank, r.Coord.Row, now)
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
	c.removeFromQueue(r)
	c.inflight = append(c.inflight, pendingDone{req: r, done: done})
	if c.cfg.Policy == ClosePage {
		c.pendingClose = append(c.pendingClose, r.Coord)
	}
}

// closeTick issues the close-page policy's explicit precharges as soon as
// the device timing permits. It returns true when it used the cycle's
// command slot.
func (c *Controller) closeTick(now uint64) bool {
	keep := c.pendingClose[:0]
	issued := false
	for i, coord := range c.pendingClose {
		// Skip banks another pending close already targets or that a new
		// activation has reopened for a different row.
		open := c.ch.OpenRow(coord.Rank, coord.Bank)
		if open == dram.RowNone || open != coord.Row {
			continue
		}
		if !issued && c.ch.CanIssue(dram.CmdPrecharge, coord.Rank, coord.Bank, 0, now) {
			c.ch.Issue(dram.CmdPrecharge, coord.Rank, coord.Bank, 0, now)
			issued = true
			continue
		}
		keep = append(keep, c.pendingClose[i])
	}
	c.pendingClose = append(c.pendingClose[:0], keep...)
	return issued
}

func (c *Controller) removeFromQueue(r *Request) {
	q := &c.readQ
	if r.Op == OpWrite {
		q = &c.writeQ
	}
	for i, x := range *q {
		if x == r {
			*q = append((*q)[:i], (*q)[i+1:]...)
			return
		}
	}
}
