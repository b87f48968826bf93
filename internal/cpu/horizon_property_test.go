package cpu

// Randomized property test for lazy driving (Horizon, CatchUp, SetWake):
// a core ticked only at its horizons must match one ticked every cycle.
// The seed is logged on failure so a CI hit can be replayed locally with
// DORAM_PROP_SEED.

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"

	"doram/internal/trace"
)

// propSeed returns the property-test seed: DORAM_PROP_SEED when set (to
// replay a CI failure), else a fixed default so runs are deterministic.
func propSeed(t *testing.T) int64 {
	if s := os.Getenv("DORAM_PROP_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("DORAM_PROP_SEED=%q: %v", s, err)
		}
		return v
	}
	return 0xc0de_4a2
}

// portCall is one Access a scriptPort saw.
type portCall struct {
	cycle, addr uint64
	write, ok   bool
}

// scriptPort is a seeded memory port. It rejects a random quarter of the
// accesses and gives each accepted read a random latency; a zero latency
// completes the read inside Access, as a read forwarded from a write
// queue does. Wrapped in gatedPort it is a RejectingPort instead: it
// rejects exactly while a gate is closed, and the gate toggles at
// scripted cycles after the core's tick, as an engine frees its queue.
type scriptPort struct {
	rng     *rand.Rand
	gated   bool
	closed  bool
	flips   []uint64 // gate toggle cycles, ascending
	calls   []portCall
	rejects uint64
	pending []fakeOp
}

func (p *scriptPort) Access(write bool, addr uint64, now uint64, onDone func(uint64)) bool {
	ok := !p.closed
	if !p.gated {
		ok = p.rng.Intn(4) != 0
	}
	if ok || !p.gated {
		// A gated port's rejected retries are elided by lazy driving, so
		// only their count is compared.
		p.calls = append(p.calls, portCall{now, addr, write, ok})
	}
	if !ok {
		p.rejects++
		return false
	}
	if write {
		return true
	}
	switch lat := uint64(p.rng.Intn(10)); lat {
	case 0:
		onDone(now)
	default:
		lat = 1 + uint64(p.rng.Intn([]int{20, 400}[lat%2]))
		p.pending = append(p.pending, fakeOp{done: now + lat, onDone: onDone})
	}
	return true
}

// tick delivers the reads due at now, then applies a gate toggle due at
// now. It reports how many reads it delivered and whether the gate opened.
func (p *scriptPort) tick(now uint64) (delivered int, opened bool) {
	keep := p.pending[:0]
	for _, op := range p.pending {
		if op.done <= now {
			op.onDone(op.done)
			delivered++
		} else {
			keep = append(keep, op)
		}
	}
	p.pending = keep
	if len(p.flips) > 0 && p.flips[0] == now {
		p.flips = p.flips[1:]
		p.closed = !p.closed
		opened = !p.closed
	}
	return delivered, opened
}

// gatedPort exposes a gated scriptPort as a RejectingPort.
type gatedPort struct{ *scriptPort }

func (p gatedPort) CanAccept() bool      { return !p.closed }
func (p gatedPort) SkipRejects(n uint64) { p.rejects += n }

// horizonCase is one randomized scenario.
type horizonCase struct {
	cfg      Config
	gated    bool
	recs     []trace.Record
	portSeed int64
	flips    []uint64
}

func randHorizonCase(r *rand.Rand, cfgs []Config, i int) horizonCase {
	hc := horizonCase{cfg: cfgs[i%len(cfgs)], gated: i%2 == 1, portSeed: r.Int63()}
	for n := 20 + r.Intn(200); len(hc.recs) < n; {
		var gap int
		switch x := r.Intn(10); {
		case x < 6:
			gap = r.Intn(9)
		case x < 9:
			gap = 9 + r.Intn(100)
		default:
			gap = 100 + r.Intn(2000)
		}
		hc.recs = append(hc.recs, trace.Record{Gap: uint32(gap), Write: r.Intn(10) < 3,
			Addr: uint64(len(hc.recs)) * 64})
	}
	if hc.gated {
		for t := uint64(r.Intn(50)); t < 400_000; t += 1 + uint64(r.Intn(300)) {
			hc.flips = append(hc.flips, t)
		}
	}
	return hc
}

func (hc horizonCase) core() (*Core, *scriptPort) {
	p := &scriptPort{rng: rand.New(rand.NewSource(hc.portSeed)), gated: hc.gated,
		flips: append([]uint64(nil), hc.flips...)}
	var port Port = p
	if hc.gated {
		port = gatedPort{p}
	}
	return New(0, hc.cfg, trace.NewSliceReader(hc.recs), port), p
}

// diffCores describes how lazy differs from ref, both current through the
// same cycle, or returns "".
func diffCores(ref, lazy *Core, refP, lazyP *scriptPort) string {
	type view struct {
		Fetch, Retire uint64
		Ops           int
		Done          bool
		FinishedAt    uint64
		Rejects       uint64
	}
	v := func(c *Core, p *scriptPort) view {
		return view{c.fetchIdx, c.retireIdx, c.opCount(), c.Done(), c.finishedAt, p.rejects}
	}
	if a, b := v(ref, refP), v(lazy, lazyP); !reflect.DeepEqual(a, b) {
		return fmt.Sprintf("state diverged:\n  every cycle %+v\n  lazy        %+v", a, b)
	}
	i := 0
	for i < len(refP.calls) && i < len(lazyP.calls) && refP.calls[i] == lazyP.calls[i] {
		i++
	}
	if i < len(refP.calls) || i < len(lazyP.calls) {
		return fmt.Sprintf("port call %d diverged: every cycle %+v, lazy %+v",
			i, refP.calls[i:min(i+1, len(refP.calls))], lazyP.calls[i:min(i+1, len(lazyP.calls))])
	}
	return ""
}

// TestPropertyCoreHorizon drives pairs of cores over seeded traces and
// ports: one ticked every cycle, the other ticked only at its Horizon and
// brought current with CatchUp, on read completions (through SetWake),
// when its gated port opens, and at random observation points. At every
// completion, every observation point and the end, the frontiers, the
// ROB's memory instructions, Done and FinishedAt, the counters, the
// port's rejection count and every port call (cycle and address) must
// agree.
func TestPropertyCoreHorizon(t *testing.T) {
	seed := propSeed(t)
	r := rand.New(rand.NewSource(seed))
	cfgs := []Config{
		DefaultConfig(),
		{ROBSize: 16, FetchWidth: 2, RetireWidth: 3},
		{ROBSize: 32, FetchWidth: 4, RetireWidth: 4},
		{ROBSize: 64, FetchWidth: 3, RetireWidth: 1},
	}
	var ticks, cycles uint64
	for i := 0; i < 48; i++ {
		hc := randHorizonCase(r, cfgs, i)
		ref, refP := hc.core()
		lazy, lazyP := hc.core()
		var now uint64
		stale := false
		lazy.SetWake(func() {
			lazy.CatchUp(now)
			stale = true
		})
		fail := func(what string) {
			t.Fatalf("replay: DORAM_PROP_SEED=%d case %d (%+v, gated %v, %d records), cycle %d: %s",
				seed, i, hc.cfg, hc.gated, len(hc.recs), now, what)
		}
		hz := uint64(0)
		for now = 0; !ref.Done() || !lazy.Done(); now++ {
			if now > 2_000_000 {
				fail("cores did not finish")
			}
			ref.Tick(now)
			refP.tick(now)
			if hz <= now {
				if now > 0 {
					lazy.CatchUp(now - 1)
				}
				lazy.Tick(now)
				ticks++
				stale = true
			}
			delivered, opened := lazyP.tick(now)
			if opened {
				lazy.CatchUp(now)
				stale = true
			}
			observe := delivered > 0 || r.Intn(64) == 0
			if observe {
				lazy.CatchUp(now)
			}
			if stale {
				hz = lazy.Horizon(now)
				stale = false
			}
			if observe {
				if d := diffCores(ref, lazy, refP, lazyP); d != "" {
					fail(d)
				}
			}
		}
		if d := diffCores(ref, lazy, refP, lazyP); d != "" {
			fail("at the end: " + d)
		}
		cycles += now
	}
	if ticks*4 > cycles {
		t.Fatalf("lazy cores ticked on %d of %d cycles; their horizons elide too little", ticks, cycles)
	}
	t.Logf("lazy cores ticked on %d of %d cycles", ticks, cycles)
}
