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
// as the simulator does; the second has its quiet window erased before
// every Tick, so it executes the full scheduling scan each cycle and is the
// reference the short-circuit must match.
type quietPair struct {
	fast, ref       *Controller
	fastLog, refLog []completion
	shortCircuits   int
}

func newQuietPair(timing dram.Timing, banks int, cfg Config) *quietPair {
	return &quietPair{
		fast: New(dram.NewChannel(timing, 2, banks), cfg),
		ref:  New(dram.NewChannel(timing, 2, banks), cfg),
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
func (p *quietPair) tick(t *testing.T, now uint64) {
	t.Helper()
	if !p.fast.dirty && now < p.fast.quietUntil {
		p.shortCircuits++
	}
	p.fast.Tick(now)
	p.ref.quietUntil = 0
	p.ref.Tick(now)
	fr, fw := p.fast.QueueLen()
	rr, rw := p.ref.QueueLen()
	if fr != rr || fw != rw || p.fast.Draining() != p.ref.Draining() {
		t.Fatalf("cycle %d: queues %d/%d draining %v with the quiet window, %d/%d %v without",
			now, fr, fw, p.fast.Draining(), rr, rw, p.ref.Draining())
	}
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
// must produce identical issue and completion cycles for every request
// under every scheduling policy, with cooperative preallocation on and
// off, on DDR3 and DDR4 timing.
func TestQuietWindowMatchesFullScan(t *testing.T) {
	timings := []struct {
		name   string
		timing dram.Timing
		banks  int
	}{
		{"ddr3", dram.DDR31600(), 8},
		{"ddr4", dram.DDR42400(), 16},
	}
	for _, tm := range timings {
		for _, policy := range []Policy{FRFCFS, FCFS, ClosePage} {
			for _, coop := range []bool{false, true} {
				tm, policy, coop := tm, policy, coop
				t.Run(fmt.Sprintf("%s/%s/coop=%v", tm.name, policy, coop), func(t *testing.T) {
					t.Parallel()
					cfg := DefaultConfig()
					cfg.Policy = policy
					cfg.CoopEnabled = coop
					// Small queues and a short starvation age put the
					// back-pressure, watermark-drain and aged-request
					// paths inside the quiet windows too.
					cfg.ReadQueueCap, cfg.WriteQueueCap = 16, 16
					cfg.WriteDrainHi, cfg.WriteDrainLo = 12, 6
					cfg.StarvationAge = 200
					shortCircuits := 0
					for seed := int64(1); seed <= 3; seed++ {
						shortCircuits += runQuietOracle(t, tm.timing, tm.banks, cfg, seed)
					}
					if shortCircuits == 0 {
						t.Fatal("the quiet window never engaged; the oracle compared nothing")
					}
				})
			}
		}
	}
}

// runQuietOracle feeds one seeded stream to a quietPair, drains it and
// compares; it returns how many ticks the fast controller short-circuited.
func runQuietOracle(t *testing.T, timing dram.Timing, banks int, cfg Config, seed int64) int {
	t.Helper()
	const horizon = 20000
	p := newQuietPair(timing, banks, cfg)
	rng := rand.New(rand.NewSource(seed))
	var burst int
	var idleUntil uint64
	now := uint64(0)
	for ; now < horizon || !p.fast.Idle() || !p.ref.Idle(); now++ {
		if now > horizon+1_000_000 {
			t.Fatalf("seed %d: controllers never drained", seed)
		}
		if now < horizon && now >= idleUntil {
			if burst == 0 {
				if rng.Intn(2) == 0 {
					burst = 1 + rng.Intn(24)
				} else {
					idleUntil = now + uint64(rng.Intn(400))
				}
			}
			if burst > 0 && rng.Intn(2) == 0 {
				burst--
				op := OpRead
				if rng.Intn(5) < 2 {
					op = OpWrite
				}
				at := addrmap.Coord{Rank: rng.Intn(2), Bank: rng.Intn(banks),
					Row: int64(rng.Intn(6)), Col: rng.Intn(64)}
				p.enqueue(t, op, rng.Intn(2) == 0, at, now)
			}
		}
		p.tick(t, now)
	}
	p.check(t)
	for i, c := range p.fastLog {
		want := 0
		if c.admitted {
			want = 1
		}
		if c.calls != want {
			t.Fatalf("seed %d: request %d (admitted %v) completed %d times", seed, i, c.admitted, c.calls)
		}
	}
	return p.shortCircuits
}
