package main

import (
	"fmt"
	"time"

	"doram/internal/addrmap"
	"doram/internal/bob"
	"doram/internal/clock"
	"doram/internal/cpu"
	"doram/internal/delegator"
	"doram/internal/dram"
	"doram/internal/mc"
	"doram/internal/oram"
	"doram/internal/oram/layout"
	"doram/internal/trace"
	"doram/internal/xrand"
)

// The component harnesses drive the layers only System.Run calls, each on
// its own, through their exported constructors and Tick/Enqueue/Submit/
// Access methods. Each is fed the workload's geometry, benchmark and seed
// and reports host nanoseconds per operation; feeding the component is
// part of the measured loop.

// geometry is the memory system a workload's simulations model.
type geometry struct {
	timing dram.Timing
	banks  int
	bench  string
	seed   uint64
}

// ddr3 is the evaluation's DDR3-1600 geometry (Table II), which every
// simulating workload uses.
func ddr3(bench string, seed uint64) geometry {
	return geometry{timing: dram.DDR31600(), banks: 8, bench: bench, seed: seed}
}

func (g geometry) addrGeo() addrmap.Geometry {
	return addrmap.Geometry{Ranks: 1, Banks: g.banks, RowBytes: g.timing.RowBytes, LineBytes: g.timing.LineBytes}
}

func (g geometry) newMC() *mc.Controller {
	return mc.New(dram.NewChannel(g.timing, 1, g.banks), mc.DefaultConfig())
}

func (g geometry) coord(rng *xrand.Rand, buses int) addrmap.Coord {
	return addrmap.Coord{Bus: rng.Intn(buses), Bank: rng.Intn(g.banks), Row: int64(rng.Intn(256)), Col: rng.Intn(128)}
}

// timeOps runs step n/10 times to warm up, then n times, and returns host
// nanoseconds and heap allocations per step.
func timeOps(n int, step func()) (nsPerOp, allocsPerOp float64) {
	const objects = "/gc/heap/allocs:objects"
	for i := 0; i < n/10; i++ {
		step()
	}
	a0, t0 := runtimeCounter(objects), time.Now()
	for i := 0; i < n; i++ {
		step()
	}
	el := time.Since(t0)
	return float64(el.Nanoseconds()) / float64(n), float64(runtimeCounter(objects)-a0) / float64(n)
}

// fillComponents runs every harness and fills its per-layer metrics.
func fillComponents(r *report, g geometry) error {
	r.metrics["mc.tick_ns"], r.metrics["mc.tick_allocs"] = mcTick(g)
	r.metrics["dram.issue_ns"] = dramIssue(g)
	bobNS, err := bobTick(g)
	if err != nil {
		return err
	}
	r.metrics["bob.tick_ns"] = bobNS
	sdNS, err := sdAccess(g)
	if err != nil {
		return err
	}
	r.metrics["delegator.sd_access_ns"] = sdNS
	cpuNS, err := cpuTick(g)
	if err != nil {
		return err
	}
	r.metrics["cpu.tick_ns"] = cpuNS
	r.metrics["oram.sampler_access_ns"] = samplerAccess(g)
	return nil
}

// mcTick is one memory-controller tick with its read and write queues kept
// full. Requests are recycled on completion, so allocations are the
// controller's own.
func mcTick(g geometry) (float64, float64) {
	ctrl := g.newMC()
	rng := xrand.New(g.seed)
	var free []*mc.Request
	recycle := func(r *mc.Request, _ uint64) { free = append(free, r) }
	var now uint64
	return timeOps(1_000_000, func() {
		for {
			var r *mc.Request
			if n := len(free); n > 0 {
				r, free = free[n-1], free[:n-1]
			} else {
				r = new(mc.Request)
			}
			op := mc.OpRead
			if rng.Intn(4) == 0 {
				op = mc.OpWrite
			}
			*r = mc.Request{Op: op, Coord: g.coord(rng, 1), OnComplete: recycle}
			if !ctrl.Enqueue(r, now) {
				free = append(free, r)
				break
			}
		}
		ctrl.Tick(now)
		now++
	})
}

// dramIssue is one legal DRAM command: each memory cycle one bank, in
// turn, steps toward a random row (precharge, activate, then a column
// access); the cost is reported per command the device accepted.
func dramIssue(g geometry) float64 {
	ch := dram.NewChannel(g.timing, 1, g.banks)
	rng := xrand.New(g.seed)
	want := make([]int64, g.banks)
	for b := range want {
		want[b] = int64(rng.Intn(256))
	}
	var now, issued uint64
	cycles := 2_000_000
	t0 := time.Now()
	for i := 0; i < cycles; i++ {
		b := i % g.banks
		open := ch.OpenRow(0, b)
		cmd := dram.CmdActivate
		switch {
		case open == want[b]:
			cmd = dram.CmdRead
			if rng.Intn(4) == 0 {
				cmd = dram.CmdWrite
			}
		case open != dram.RowNone:
			cmd = dram.CmdPrecharge
		}
		if ch.CanIssue(cmd, 0, b, want[b], now) {
			ch.Issue(cmd, 0, b, want[b], now)
			issued++
			if cmd == dram.CmdRead || cmd == dram.CmdWrite {
				want[b] = int64(rng.Intn(256))
			}
		}
		ch.EndCycle()
		now++
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(max(issued, 1))
}

// bobTick is one memory-edge tick of a BOB channel (serial link plus
// simple controller) with four sub-channels, its input queue kept busy
// with NS requests.
func bobTick(g geometry) (float64, error) {
	link, err := bob.NewLink(bob.DefaultLinkConfig())
	if err != nil {
		return 0, err
	}
	subs := make([]*mc.Controller, 4)
	for i := range subs {
		subs[i] = g.newMC()
	}
	ctrl, err := bob.NewSimpleController(link, subs, 64)
	if err != nil {
		return 0, err
	}
	rng := xrand.New(g.seed)
	onDone := func(uint64) {}
	var cyc uint64
	ns, _ := timeOps(300_000, func() {
		for ; ; cyc++ {
			if ctrl.QueueLen() < 32 {
				ctrl.Submit(&bob.NSRequest{Write: rng.Intn(4) == 0, Coord: g.coord(rng, len(subs)), OnDone: onDone}, cyc)
			}
			if clock.IsMemEdge(cyc) {
				ctrl.Tick(cyc)
				cyc++
				return
			}
		}
	})
	return ns, nil
}

// newBobs builds D-ORAM's four BOB channels: the secure channel with four
// sub-channels and three normal channels with one each.
func newBobs(g geometry) ([]*bob.SimpleController, error) {
	var bobs []*bob.SimpleController
	for c, n := range []int{4, 1, 1, 1} {
		link, err := bob.NewLink(bob.DefaultLinkConfig())
		if err != nil {
			return nil, err
		}
		subs := make([]*mc.Controller, n)
		for i := range subs {
			subs[i] = g.newMC()
		}
		b, err := bob.NewSimpleController(link, subs, 64)
		if err != nil {
			return nil, fmt.Errorf("channel %d: %w", c, err)
		}
		bobs = append(bobs, b)
	}
	return bobs, nil
}

// sdAccess is one whole ORAM access through the secure delegator: the
// request crosses the link, the read phase fetches the path, the response
// returns and the write phase drains. The channels are otherwise idle.
func sdAccess(g geometry) (float64, error) {
	p := oram.PaperParams()
	lay := layout.New(p, layout.DefaultSubtreeLevels, 0)
	bobs, err := newBobs(g)
	if err != nil {
		return 0, err
	}
	sd, err := delegator.NewSD(delegator.DefaultSDConfig(), oram.NewSampler(p, g.seed), lay, bobs[0], bobs[1:], g.addrGeo())
	if err != nil {
		return 0, err
	}
	rng := xrand.New(g.seed)
	var cyc uint64
	responded := false
	onResponse := func(uint64) { responded = true }
	ns, _ := timeOps(1500, func() {
		responded = false
		a := &delegator.Access{Real: true, Write: rng.Intn(2) == 0, Addr: rng.Uint64n(1<<20) * 64, OnResponse: onResponse}
		for submitted := false; !submitted || !responded || sd.Busy(); cyc++ {
			if !submitted {
				submitted = sd.Submit(a, cyc)
			}
			if clock.IsMemEdge(cyc) {
				sd.Tick(cyc)
				for _, b := range bobs {
					b.Tick(cyc)
				}
			}
		}
	})
	return ns, nil
}

// fixedPort answers every read after a fixed latency and accepts writes
// as posted, so the core harness measures the core alone.
type fixedPort struct {
	lat     uint64
	pending []pendingRead
}

type pendingRead struct {
	due    uint64
	onDone func(uint64)
}

func (p *fixedPort) Access(write bool, _ uint64, now uint64, onDone func(uint64)) bool {
	if write {
		return true
	}
	if len(p.pending) >= 64 {
		return false
	}
	p.pending = append(p.pending, pendingRead{due: now + p.lat, onDone: onDone})
	return true
}

func (p *fixedPort) deliver(now uint64) {
	n := 0
	for n < len(p.pending) && p.pending[n].due <= now {
		p.pending[n].onDone(now)
		n++
	}
	p.pending = append(p.pending[:0], p.pending[n:]...)
}

// cpuTick is one CPU core cycle replaying the workload's benchmark trace
// against a memory port with a fixed 200-cycle read latency.
func cpuTick(g geometry) (float64, error) {
	spec, ok := trace.ByName(g.bench)
	if !ok {
		return 0, fmt.Errorf("unknown benchmark %q", g.bench)
	}
	port := &fixedPort{lat: 200}
	core := cpu.New(0, cpu.DefaultConfig(), trace.NewGenerator(spec, g.seed), port)
	var cyc uint64
	ns, _ := timeOps(2_000_000, func() {
		port.deliver(cyc)
		core.Tick(cyc)
		cyc++
	})
	return ns, nil
}

// samplerAccess is one address-trace generation of the timing model's
// stashless Path ORAM sampler at the paper's L=23.
func samplerAccess(g geometry) float64 {
	s := oram.NewSampler(oram.PaperParams(), g.seed)
	rng := xrand.New(g.seed)
	ns, _ := timeOps(100_000, func() { s.Access(rng.Uint64n(1 << 24)) })
	return ns
}
