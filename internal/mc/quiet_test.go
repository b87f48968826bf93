package mc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"doram/internal/addrmap"
	"doram/internal/dram"
)

// completion is what a request's callback observed.
type completion struct {
	admitted       bool
	issuedAt, done uint64
	calls          int
}

// quietPair drives two controllers with one request stream. The first runs
// as the simulator does. The second has its quiet window, any deferred
// preallocation update and its readiness memo erased after every Tick, so
// it runs the full scheduling scan, preallocation update included, on
// every cycle and asks the channel afresh on every scan: it is the
// reference the short-circuit and the memo must match. With lazy set the first is
// driven as the fast-forwarding run loop drives it: ticked only on cycles
// NextEvent names or that offer a request, with Skip accounting the rest.
type quietPair struct {
	fast, ref       *Controller
	fastLog, refLog []completion
	lazy            bool
	next, settled   uint64 // fast's next tick; its first unaccounted cycle
	quietCounts
}

// quietCounts is how often the fast controller used each kind of quiet
// window, so the oracle can prove it compared each of them.
type quietCounts struct {
	shortCircuits int // ticks that skipped the scheduling scan
	issueWindows  int // windows opened on a tick that issued a command
	quietDones    int // skipped ticks that delivered a completion
	coopDeferred  int // windows opened over a deferred preallocation update
	headWaits     int // windows opened while a ready read head waits its turn
}

func (q *quietCounts) add(o quietCounts) {
	q.shortCircuits += o.shortCircuits
	q.issueWindows += o.issueWindows
	q.quietDones += o.quietDones
	q.coopDeferred += o.coopDeferred
	q.headWaits += o.headWaits
}

// commands is how many commands c's channel has issued.
func commands(c *Controller) uint64 {
	s := c.Channel().Stats()
	return s.Activates.Value() + s.Precharges.Value() + s.Reads.Value() + s.Writes.Value() + s.Refreshes.Value()
}

func newQuietPair(timing dram.Timing, banks int, cfg Config, lazy bool) *quietPair {
	return &quietPair{
		fast: New(dram.NewChannel(timing, 2, banks), cfg),
		ref:  New(dram.NewChannel(timing, 2, banks), cfg),
		lazy: lazy,
	}
}

// settle accounts the fast controller's cycles before now that it was not
// ticked on.
func (p *quietPair) settle(now uint64) {
	if now > p.settled {
		p.fast.Skip(now - p.settled)
		p.settled = now
	}
}

// enqueue offers one request to both controllers; they must agree on
// admission.
func (p *quietPair) enqueue(t *testing.T, op OpType, secure bool, at addrmap.Coord, now uint64) {
	t.Helper()
	i := len(p.fastLog)
	p.fastLog = append(p.fastLog, completion{})
	p.refLog = append(p.refLog, completion{})
	mk := func(log *[]completion) *Request {
		return &Request{Op: op, Coord: at, Secure: secure, OnComplete: func(r *Request, done uint64) {
			c := &(*log)[i]
			c.issuedAt, c.done = r.IssuedAt, done
			c.calls++
		}}
	}
	okFast, okRef := p.fast.Enqueue(mk(&p.fastLog), now), p.ref.Enqueue(mk(&p.refLog), now)
	if okFast != okRef {
		t.Fatalf("cycle %d: request %d admitted %v with the quiet window, %v without", now, i, okFast, okRef)
	}
	p.fastLog[i].admitted, p.refLog[i].admitted = okFast, okRef
}

// tick advances both controllers one memory cycle and checks their
// visible state still agrees.
func (p *quietPair) tick(t *testing.T, now uint64, offered bool) {
	t.Helper()
	if !p.lazy || offered || now >= p.next {
		p.tickFast(now)
	}
	p.ref.Tick(now)
	p.ref.quietUntil, p.ref.coopDue = 0, 0
	p.ref.gen++
	fr, fw := p.fast.QueueLen()
	rr, rw := p.ref.QueueLen()
	if fr != rr || fw != rw || p.fast.Draining() != p.ref.Draining() {
		t.Fatalf("cycle %d: queues %d/%d draining %v with the quiet window, %d/%d %v without",
			now, fr, fw, p.fast.Draining(), rr, rw, p.ref.Draining())
	}
}

// tickFast ticks the fast controller and counts the kind of tick it was.
func (p *quietPair) tickFast(now uint64) {
	p.settle(now)
	quiet := !p.fast.dirty && now < p.fast.quietUntil
	cmds, dones := commands(p.fast), p.fast.stats.ReadsDone.Value()+p.fast.stats.WritesDone.Value()
	p.fast.Tick(now)
	switch {
	case quiet:
		p.shortCircuits++
		if p.fast.stats.ReadsDone.Value()+p.fast.stats.WritesDone.Value() > dones {
			p.quietDones++
		}
	case commands(p.fast) > cmds && p.fast.quietUntil > now+1:
		p.issueWindows++
	}
	if p.fast.coopDue == now+1 && p.fast.quietUntil > now+1 {
		p.coopDeferred++
	}
	if p.fast.quietUntil > now+1 && headWaits(p.fast, now) {
		p.headWaits++
	}
	p.settled, p.next = now+1, p.fast.NextEvent(now)
}

// check compares every request's issue and completion cycle, the queue
// statistics and the channel's command counts.
func (p *quietPair) check(t *testing.T) {
	t.Helper()
	for i := range p.fastLog {
		f, r := p.fastLog[i], p.refLog[i]
		if f != r {
			t.Fatalf("request %d: issued %d done %d (calls %d) with the quiet window, issued %d done %d (calls %d) without",
				i, f.issuedAt, f.done, f.calls, r.issuedAt, r.done, r.calls)
		}
	}
	if !reflect.DeepEqual(*p.fast.Stats(), *p.ref.Stats()) {
		t.Fatalf("queue stats diverged:\n  quiet window %+v\n  full scan    %+v", *p.fast.Stats(), *p.ref.Stats())
	}
	if !reflect.DeepEqual(*p.fast.Channel().Stats(), *p.ref.Channel().Stats()) {
		t.Fatalf("channel command counts diverged:\n  quiet window %+v\n  full scan    %+v",
			*p.fast.Channel().Stats(), *p.ref.Channel().Stats())
	}
}

// TestQuietWindowMatchesFullScan is the oracle for Tick's quiet-window
// short-circuit. The fast-forward differential suite runs the short-circuit
// in both of its loops, so it cannot see a quietBound that is late; here
// the reference never short-circuits. Seeded bursty streams of secure and
// normal reads and writes, with idle gaps, refresh and queue pressure,
// must produce identical issue and completion cycles for every request,
// with cooperative preallocation on and off, on DDR3 and DDR4 timing.
func TestQuietWindowMatchesFullScan(t *testing.T) {
	configs := schedulerConfigs()
	// Short secure batches make every deferred preallocation update count
	// toward a turn change within a few issues. A zero-length batch flips
	// the turn back on the tick after it flips to secure: an update that
	// is not its own fixed point, which must never be deferred.
	for _, streak := range []int{0, 2} {
		sc := configs[1]
		sc.name += fmt.Sprintf("/streak=%d", streak)
		sc.cfg.CoopStreak = streak
		configs = append(configs, sc)
	}
	for _, sc := range configs {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			var n quietCounts
			for seed := int64(1); seed <= 3; seed++ {
				for _, lazy := range []bool{false, true} {
					n.add(runQuietOracle(t, sc.timing, sc.banks, sc.cfg, seed, lazy))
				}
			}
			switch {
			case n.shortCircuits == 0:
				t.Fatal("the quiet window never engaged; the oracle compared nothing")
			case n.issueWindows == 0:
				t.Fatal("no tick that issued opened a quiet window; the oracle never compared one")
			case n.quietDones == 0:
				t.Fatal("no completion was delivered inside a quiet window; the oracle never compared one")
			case sc.cfg.CoopEnabled && n.coopDeferred == 0:
				t.Fatal("no window deferred a preallocation update; the oracle never compared one")
			}
			t.Logf("%d ticks short-circuited, %d windows opened on an issue, %d completions delivered without a scan, %d preallocation updates deferred",
				n.shortCircuits, n.issueWindows, n.quietDones, n.coopDeferred)
		})
	}
}

// runQuietOracle feeds one seeded stream to a quietPair, drains it and
// compares; it returns how often the fast controller used each kind of
// quiet window.
func runQuietOracle(t *testing.T, timing dram.Timing, banks int, cfg Config, seed int64, lazy bool) quietCounts {
	t.Helper()
	p := newQuietPair(timing, banks, cfg, lazy)
	return p.run(t, fmt.Sprintf("seed %d", seed), streamHorizon, newStreamGen(seed, banks).next)
}

// run offers the requests offer names until horizon, ticks both
// controllers until they drain, and compares them.
func (p *quietPair) run(t *testing.T, label string, horizon uint64,
	offer func(now uint64) (op OpType, secure bool, at addrmap.Coord, ok bool)) quietCounts {
	t.Helper()
	now := uint64(0)
	for ; now < horizon || !p.fast.Idle() || !p.ref.Idle(); now++ {
		if now > horizon+1_000_000 {
			t.Fatalf("%s: controllers never drained", label)
		}
		op, secure, at, offered := offer(now)
		if offered {
			p.settle(now)
			p.enqueue(t, op, secure, at, now)
		}
		p.tick(t, now, offered)
	}
	p.settle(now)
	p.check(t)
	for i, c := range p.fastLog {
		want := 0
		if c.admitted {
			want = 1
		}
		if c.calls != want {
			t.Fatalf("%s: request %d (admitted %v) completed %d times", label, i, c.admitted, c.calls)
		}
	}
	return p.quietCounts
}

// TestRefreshTickMakesNoPreallocationUpdate covers the one full tick that
// makes no preallocation update: a tick whose slot goes to refresh. A
// burst of secure reads is swept across the first refresh deadline, so a
// secure column issue, which charges the batch and defers resetting it,
// lands on each cycle before the deadline. Normal reads then arrive while
// the rank refreshes. With two-issue secure batches, a reset made on the
// refresh tick would move later picks.
func TestRefreshTickMakesNoPreallocationUpdate(t *testing.T) {
	timing := dram.DDR31600()
	cfg := DefaultConfig()
	cfg.CoopEnabled, cfg.CoopStreak = true, 2
	due := timing.REFI
	for start := due - 100; start < due; start++ {
		offer := func(now uint64) (OpType, bool, addrmap.Coord, bool) {
			switch {
			case now >= start && now < start+8:
				return OpRead, true, addrmap.Coord{Bank: int(now - start), Row: 1}, true
			case now > due && now <= due+8:
				return OpRead, false, addrmap.Coord{Bank: int(now - due - 1), Row: 2}, true
			}
			return 0, false, addrmap.Coord{}, false
		}
		for _, lazy := range []bool{false, true} {
			newQuietPair(timing, 8, cfg, lazy).run(t, fmt.Sprintf("burst at %d, lazy %v", start, lazy), due+9, offer)
		}
	}
}

// headWaits reports whether c's read-queue head could issue its next
// command on the next cycle but belongs to a class the next tick's
// cooperative turn blocks, with the starvation guard not yet serving it.
func headWaits(c *Controller, now uint64) bool {
	if len(c.readQ) == 0 || now > c.readQ[0].req.Arrival+c.cfg.StarvationAge {
		return false
	}
	turn, _ := c.coopStep(c.coopSecTurn, c.coopCount)
	blockSecure, blockNormal := c.coopBlocks(turn)
	head := c.readQ[0]
	if head.secure && !blockSecure || !head.secure && (!blockNormal || c.draining) {
		return false
	}
	at := head.req.Coord
	open := c.ch.OpenRow(at.Rank, at.Bank)
	cmd := dram.CmdPrecharge
	switch open {
	case dram.RowNone:
		cmd = dram.CmdActivate
	case at.Row:
		cmd = dram.CmdRead
	}
	return c.ch.EarliestIssue(cmd, at.Rank, at.Bank, open, now+1) <= now+1
}

// TestQuietWindowBehindBlockedHead covers a read-queue head that the
// cooperative turn blocks before the starvation guard serves it. Secure
// reads take the turn, a normal read to an idle bank arrives behind them,
// and a stream of secure row hits keeps the channel contended. Once the
// first secure reads issue, the normal read heads the queue with its
// activate ready but not its turn. That ready command must not pin the
// quiet bound to the next cycle: windows open between the secure column
// reads while it waits, and every pick still matches the full scan.
func TestQuietWindowBehindBlockedHead(t *testing.T) {
	timing := dram.DDR31600()
	cfg := DefaultConfig()
	cfg.CoopEnabled = true
	offer := func(now uint64) (OpType, bool, addrmap.Coord, bool) {
		switch {
		case now == 4:
			return OpRead, false, addrmap.Coord{Bank: 7, Row: 1}, true
		case now < 20:
			return OpRead, true, addrmap.Coord{Bank: int(now % 4), Row: 1, Col: int(now)}, true
		}
		return 0, false, addrmap.Coord{}, false
	}
	for _, lazy := range []bool{false, true} {
		n := newQuietPair(timing, 8, cfg, lazy).run(t, fmt.Sprintf("lazy %v", lazy), 20, offer)
		if n.headWaits == 0 {
			t.Fatalf("lazy %v: no window opened while the read head waited for its turn", lazy)
		}
		t.Logf("lazy %v: %d windows opened behind the waiting head", lazy, n.headWaits)
	}
}

// streamHorizon is the last memory cycle a streamGen offers a request on.
const streamHorizon = 20000

// streamGen is the seeded request stream the scheduler oracles replay:
// bursts of secure and normal reads and writes over two ranks and six rows
// per bank, separated by idle gaps of up to 400 cycles.
type streamGen struct {
	seed      int64
	rng       *rand.Rand
	banks     int
	rowBase   int64 // added to every row
	burst     int
	idleUntil uint64
}

func newStreamGen(seed int64, banks int) *streamGen {
	return &streamGen{seed: seed, rng: rand.New(rand.NewSource(seed)), banks: banks}
}

// next returns the request offered at memory cycle now, if any.
func (g *streamGen) next(now uint64) (op OpType, secure bool, at addrmap.Coord, ok bool) {
	if now >= streamHorizon || now < g.idleUntil {
		return
	}
	rng := g.rng
	if g.burst == 0 {
		if rng.Intn(2) == 0 {
			g.burst = 1 + rng.Intn(24)
		} else {
			g.idleUntil = now + uint64(rng.Intn(400))
		}
	}
	if g.burst == 0 || rng.Intn(2) != 0 {
		return
	}
	g.burst--
	op = OpRead
	if rng.Intn(5) < 2 {
		op = OpWrite
	}
	at = addrmap.Coord{Rank: rng.Intn(2), Bank: rng.Intn(g.banks),
		Row: g.rowBase + int64(rng.Intn(6)), Col: rng.Intn(64)}
	return op, rng.Intn(2) == 0, at, true
}
