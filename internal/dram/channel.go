package dram

import (
	"fmt"

	"doram/internal/clock"
	"doram/internal/evtrace"
	"doram/internal/metrics"
	"doram/internal/stats"
)

// Command identifies a DRAM device command.
type Command int

// DRAM device commands.
const (
	CmdActivate Command = iota
	CmdPrecharge
	CmdRead
	CmdWrite
	CmdRefresh
)

// String returns the JEDEC mnemonic for the command.
func (c Command) String() string {
	switch c {
	case CmdActivate:
		return "ACT"
	case CmdPrecharge:
		return "PRE"
	case CmdRead:
		return "RD"
	case CmdWrite:
		return "WR"
	case CmdRefresh:
		return "REF"
	default:
		return fmt.Sprintf("Command(%d)", int(c))
	}
}

// ChannelStats aggregates device-level activity of one channel.
type ChannelStats struct {
	Activates  stats.Counter
	Precharges stats.Counter
	Reads      stats.Counter
	Writes     stats.Counter
	Refreshes  stats.Counter
	DataBus    stats.Utilization
}

// Channel models one DRAM channel: a set of ranks behind a shared command
// bus (one command per memory cycle) and a shared data bus. The memory
// controller drives it through CanIssue/Issue.
type Channel struct {
	timing Timing
	ranks  []*Rank

	lastCmdCycle  uint64 // command bus: one command per cycle
	hasIssuedCmd  bool
	dataBusFreeAt uint64
	lastBurstRank int
	lastBurstWr   bool

	stats ChannelStats

	// trace, when attached, records refresh windows as spans on track
	// (e.g. "chan0.dram"). Per-burst transfers are deliberately not
	// emitted here — the memory controller's service spans already cover
	// them, and per-command events would flood the ring. nil costs one
	// nil check per refresh.
	trace *evtrace.Tracer
	track string
}

// NewChannel builds a channel with the given geometry. It panics on an
// invalid Timing because that is a configuration programming error.
func NewChannel(t Timing, ranks, banksPerRank int) *Channel {
	if err := t.Validate(); err != nil {
		panic(err)
	}
	ch := &Channel{timing: t, lastBurstRank: -1}
	for i := 0; i < ranks; i++ {
		ch.ranks = append(ch.ranks, NewRank(banksPerRank, t))
	}
	return ch
}

// Timing returns the channel's timing parameters.
func (ch *Channel) Timing() Timing { return ch.timing }

// NumRanks returns the number of ranks on the channel.
func (ch *Channel) NumRanks() int { return len(ch.ranks) }

// Rank returns rank i.
func (ch *Channel) Rank(i int) *Rank { return ch.ranks[i] }

// Stats returns the channel's activity counters.
func (ch *Channel) Stats() *ChannelStats { return &ch.stats }

// AttachMetrics registers the channel's device activity under prefix
// (e.g. "chan0.sub1.dram."). The command counters are export-time reads of
// the existing ChannelStats; bus_util is an epoch-interval data-bus
// utilization gauge. No-op on a nil registry.
func (ch *Channel) AttachMetrics(r *metrics.Registry, prefix string) {
	if r == nil {
		return
	}
	r.CounterFunc(prefix+"activates", ch.stats.Activates.Value)
	r.CounterFunc(prefix+"precharges", ch.stats.Precharges.Value)
	r.CounterFunc(prefix+"reads", ch.stats.Reads.Value)
	r.CounterFunc(prefix+"writes", ch.stats.Writes.Value)
	r.CounterFunc(prefix+"refreshes", ch.stats.Refreshes.Value)
	r.Gauge(prefix+"bus_util", metrics.Ratio(func() (uint64, uint64) {
		return ch.stats.DataBus.Busy(), ch.stats.DataBus.Total()
	}))
}

// AttachTracer routes refresh-window spans to t on the given track (CPU
// cycles). No-op fields on nil.
func (ch *Channel) AttachTracer(t *evtrace.Tracer, track string) {
	ch.trace = t
	ch.track = track
}

// OpenRow returns the open row of (rank, bank), or RowNone.
func (ch *Channel) OpenRow(rank, bank int) int64 {
	return ch.ranks[rank].banks[bank].openRow
}

// RefreshPressure reports whether rank needs a refresh scheduled at or
// before cycle now. The controller should drain and precharge the rank.
func (ch *Channel) RefreshPressure(rank int, now uint64) bool {
	return ch.ranks[rank].refreshDue(now)
}

// NextRefreshDue returns the memory cycle rank's next REF becomes due.
func (ch *Channel) NextRefreshDue(rank int) uint64 {
	return ch.ranks[rank].NextRefreshDue()
}

// commandBusFree reports whether the single-command-per-cycle constraint
// allows another command at cycle now.
func (ch *Channel) commandBusFree(now uint64) bool {
	return !ch.hasIssuedCmd || now > ch.lastCmdCycle
}

// dataBusOK reports whether a burst of the given type on rank may start at
// cycle start, honoring occupancy plus turnaround gaps between bursts of
// different ranks or directions.
func (ch *Channel) dataBusOK(start uint64, rank int, isWrite bool) bool {
	need := ch.dataBusFreeAt
	if ch.lastBurstRank >= 0 && (ch.lastBurstRank != rank || ch.lastBurstWr != isWrite) {
		need += ch.timing.RTRS
	}
	return start >= need
}

// CanIssue reports whether cmd targeting (rank, bank, row) may legally
// issue at cycle now.
func (ch *Channel) CanIssue(cmd Command, rank, bank int, row int64, now uint64) bool {
	if !ch.commandBusFree(now) {
		return false
	}
	r := ch.ranks[rank]
	if r.inRefresh(now) {
		return false
	}
	b := &r.banks[bank]
	switch cmd {
	case CmdActivate:
		return b.canActivate(now) && r.actOK(bank, now, &ch.timing) && r.fawOK(now, &ch.timing)
	case CmdPrecharge:
		return b.canPrecharge(now)
	case CmdRead:
		return b.canRead(row, now) && now >= r.nextRead && r.casOK(bank, now, &ch.timing) &&
			ch.dataBusOK(now+ch.timing.CL, rank, false)
	case CmdWrite:
		return b.canWrite(row, now) && now >= r.nextWrite && r.casOK(bank, now, &ch.timing) &&
			ch.dataBusOK(now+ch.timing.CWL, rank, true)
	case CmdRefresh:
		return r.allPrecharged() && now >= r.nextRefreshDue-ch.timing.REFI/8
	default:
		return false
	}
}

// EarliestIssue returns the earliest memory cycle at or after from at
// which cmd targeting (rank, bank, row) could legally issue, assuming no
// other command issues in the meantime. Every constraint CanIssue checks is
// an absolute timestamp frozen between issues, so the answer is exact under
// that assumption: CanIssue is false at every cycle from from up to the
// returned one and true at it and at every later cycle. It returns
// clock.Never when time alone cannot unblock cmd (ACT needs the open row
// precharged first, RD/WR need their row opened, REF needs every bank
// closed) — only another command changes those.
func (ch *Channel) EarliestIssue(cmd Command, rank, bank int, row int64, from uint64) uint64 {
	t := from
	if ch.hasIssuedCmd && t <= ch.lastCmdCycle {
		t = ch.lastCmdCycle + 1
	}
	r := ch.ranks[rank]
	if t < r.refreshUntil {
		t = r.refreshUntil
	}
	b := &r.banks[bank]
	switch cmd {
	case CmdActivate:
		if b.openRow != RowNone {
			return clock.Never
		}
		t = maxU64(t, b.nextActivate)
		if r.hasAct {
			t = maxU64(t, r.lastActTime+ch.timing.rrdFor(r.lastActBank, bank))
		}
		if r.actCount == len(r.actTimes) {
			t = maxU64(t, r.actTimes[r.actHead]+ch.timing.FAW)
		}
	case CmdPrecharge:
		if b.openRow == RowNone {
			return clock.Never
		}
		t = maxU64(t, b.nextPrecharge)
	case CmdRead:
		if !b.IsOpen(row) {
			return clock.Never
		}
		t = maxU64(t, b.nextRead)
		t = maxU64(t, r.nextRead)
		if r.hasCAS {
			t = maxU64(t, r.lastCASTime+ch.timing.ccdFor(r.lastCASBank, bank))
		}
		t = maxU64(t, ch.busReadyFor(rank, false, ch.timing.CL))
	case CmdWrite:
		if !b.IsOpen(row) {
			return clock.Never
		}
		t = maxU64(t, b.nextWrite)
		t = maxU64(t, r.nextWrite)
		if r.hasCAS {
			t = maxU64(t, r.lastCASTime+ch.timing.ccdFor(r.lastCASBank, bank))
		}
		t = maxU64(t, ch.busReadyFor(rank, true, ch.timing.CWL))
	case CmdRefresh:
		if !r.allPrecharged() {
			return clock.Never
		}
		if due := r.nextRefreshDue - ch.timing.REFI/8; t < due {
			t = due
		}
	}
	return t
}

// busReadyFor returns the earliest cycle a column command with the given
// data latency could issue so that its burst start clears the data bus
// occupancy plus any rank/direction turnaround (the time-shifted mirror of
// dataBusOK).
func (ch *Channel) busReadyFor(rank int, isWrite bool, lat uint64) uint64 {
	need := ch.dataBusFreeAt
	if ch.lastBurstRank >= 0 && (ch.lastBurstRank != rank || ch.lastBurstWr != isWrite) {
		need += ch.timing.RTRS
	}
	if need <= lat {
		return 0
	}
	return need - lat
}

// Issue executes cmd at cycle now and returns the cycle at which its effect
// completes: for reads/writes the cycle the last data beat leaves/arrives
// on the bus; for other commands the issue cycle itself. Callers must have
// checked CanIssue; Issue panics on an illegal command sequence since that
// indicates a scheduler bug.
func (ch *Channel) Issue(cmd Command, rank, bank int, row int64, now uint64) uint64 {
	if !ch.CanIssue(cmd, rank, bank, row, now) {
		panic(fmt.Sprintf("dram: illegal %s rank=%d bank=%d row=%d at cycle %d", cmd, rank, bank, row, now))
	}
	ch.lastCmdCycle = now
	ch.hasIssuedCmd = true
	t := &ch.timing
	r := ch.ranks[rank]
	b := &r.banks[bank]
	switch cmd {
	case CmdActivate:
		b.activate(row, now, t)
		r.recordAct(now)
		r.recordActSpacing(bank, now)
		ch.stats.Activates.Inc()
		return now

	case CmdPrecharge:
		b.precharge(now, t)
		ch.stats.Precharges.Inc()
		return now

	case CmdRead:
		b.read(now, t)
		r.recordCAS(bank, now)
		start := now + t.CL
		ch.occupyBus(start, rank, false)
		ch.stats.Reads.Inc()
		return start + t.BurstCycles

	case CmdWrite:
		b.write(now, t)
		r.recordCAS(bank, now)
		// Write-to-read turnaround within the rank: tWTR after data end.
		r.nextRead = maxU64(r.nextRead, now+t.CWL+t.BurstCycles+t.WTR)
		start := now + t.CWL
		ch.occupyBus(start, rank, true)
		ch.stats.Writes.Inc()
		return start + t.BurstCycles

	case CmdRefresh:
		r.startRefresh(now, t)
		ch.stats.Refreshes.Inc()
		if ch.trace != nil {
			ch.trace.EmitUnkeyed(ch.track, "dram", "refresh",
				clock.ToCPU(now), clock.ToCPU(now+t.RFC), uint64(rank))
		}
		return now + t.RFC

	default:
		panic(fmt.Sprintf("dram: unknown command %d", int(cmd)))
	}
}

func (ch *Channel) occupyBus(start uint64, rank int, isWrite bool) {
	ch.dataBusFreeAt = start + ch.timing.BurstCycles
	ch.lastBurstRank = rank
	ch.lastBurstWr = isWrite
	ch.stats.DataBus.AddBusy(ch.timing.BurstCycles)
}

// EndCycle must be called by the controller once per memory cycle after all
// issue attempts, so the one-command-per-cycle constraint resets and bus
// utilization accounting advances.
func (ch *Channel) EndCycle() {
	ch.hasIssuedCmd = false
	ch.stats.DataBus.AddTotal(1)
}

// Skip accounts n elided idle memory cycles: the utilization denominator
// EndCycle would have advanced on each. All other channel state (bank FSMs,
// bus occupancy, refresh deadlines) is timestamp-based and needs no decay,
// which is what makes idle cycles skippable at all.
func (ch *Channel) Skip(n uint64) {
	ch.stats.DataBus.AddTotal(n)
}
