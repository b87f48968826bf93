package delegator

import (
	"testing"

	"doram/internal/addrmap"
	"doram/internal/bob"
	"doram/internal/clock"
	"doram/internal/dram"
	"doram/internal/mc"
	"doram/internal/metrics"
	"doram/internal/oram"
	"doram/internal/oram/layout"
)

func testGeo() addrmap.Geometry {
	return addrmap.Geometry{Ranks: 1, Banks: 8, RowBytes: 8192, LineBytes: 64}
}

func testParams(split int) oram.Params {
	return oram.Params{Levels: 12 + split, Z: 4, BlockSize: 64, TopCacheLevels: 3, StashCapacity: 200}
}

func newMC() *mc.Controller {
	cfg := mc.DefaultConfig()
	cfg.RefreshEnabled = false
	return mc.New(dram.NewChannel(dram.DDR31600(), 1, 8), cfg)
}

// rig wires an engine + SD over a secure channel with 4 sub-channels and
// 3 normal channels with 1 sub-channel each. The engine's counters are
// registered under "sapp0.engine." as a simulation registers them.
type rig struct {
	engine  *Engine
	sd      *SD
	secure  *bob.SimpleController
	normals []*bob.SimpleController
	reg     *metrics.Registry
}

func newRig(t *testing.T, split int, pace uint64) *rig {
	t.Helper()
	p := testParams(split)
	secureSubs := []*mc.Controller{newMC(), newMC(), newMC(), newMC()}
	secure, err := bob.NewSimpleController(bob.MustLink(bob.DefaultLinkConfig()), secureSubs, 32)
	if err != nil {
		t.Fatal(err)
	}
	var normals []*bob.SimpleController
	for i := 0; i < 3; i++ {
		nc, err := bob.NewSimpleController(bob.MustLink(bob.DefaultLinkConfig()), []*mc.Controller{newMC()}, 32)
		if err != nil {
			t.Fatal(err)
		}
		normals = append(normals, nc)
	}
	lay := layout.New(p, layout.DefaultSubtreeLevels, split)
	sd, err := NewSD(DefaultSDConfig(), oram.NewSampler(p, 7), lay, secure, normals, testGeo())
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{engine: NewEngine(sd, pace, 16), sd: sd, secure: secure, normals: normals, reg: metrics.New()}
	r.engine.AttachMetrics(r.reg, "sapp0.engine.")
	return r
}

// counter reads the engine counter sapp0.engine.<name>.
func (r *rig) counter(name string) uint64 {
	return r.reg.CounterValues()["sapp0.engine."+name]
}

// run advances the rig n CPU cycles.
func (r *rig) run(from, n uint64) uint64 {
	for cpu := from; cpu < from+n; cpu++ {
		r.engine.Tick(cpu)
		if clock.IsMemEdge(cpu) {
			r.sd.Tick(cpu)
			r.secure.Tick(cpu)
			for _, nc := range r.normals {
				nc.Tick(cpu)
			}
		}
	}
	return from + n
}

func TestDummyStreamWhenIdle(t *testing.T) {
	r := newRig(t, 0, DefaultPace)
	r.run(0, 200000)
	st := r.sd.Stats()
	if st.DummyAccesses.Value() < 5 {
		t.Fatalf("only %d dummy accesses in 200k cycles; timing protection idle stream broken",
			st.DummyAccesses.Value())
	}
	if st.RealAccesses.Value() != 0 {
		t.Fatal("phantom real accesses")
	}
	if r.counter("dummy_sent") != st.Accesses.Value() {
		t.Fatalf("engine sent %d, SD ran %d", r.counter("dummy_sent"), st.Accesses.Value())
	}
}

func TestRealReadCompletes(t *testing.T) {
	r := newRig(t, 0, DefaultPace)
	var done uint64
	if !r.engine.Access(false, 0x4000, 0, func(c uint64) { done = c }) {
		t.Fatal("engine rejected request")
	}
	r.run(0, 100000)
	if done == 0 {
		t.Fatal("S-App read never completed")
	}
	if r.sd.Stats().RealAccesses.Value() != 1 {
		t.Fatalf("real accesses = %d, want 1", r.sd.Stats().RealAccesses.Value())
	}
	// A full path read of 40 blocks per sub-channel plus two link
	// traversals cannot beat ~200 cycles.
	if done < 200 {
		t.Fatalf("completion at %d is implausibly fast", done)
	}
}

func TestWritesArePostedButStillAccessORAM(t *testing.T) {
	r := newRig(t, 0, DefaultPace)
	if !r.engine.Access(true, 0x8000, 0, nil) {
		t.Fatal("engine rejected write")
	}
	r.run(0, 100000)
	if r.counter("real_sent") != 1 {
		t.Fatal("write never became an ORAM access")
	}
	if r.sd.Stats().RealAccesses.Value() != 1 {
		t.Fatal("SD did not execute the write access")
	}
}

// TestPacingEnforced: at the short pace of 200 CPU cycles, no request
// waits on the SD past its due cycle, and none departs early.
func TestPacingEnforced(t *testing.T) { checkPacing(t, 200, 300000) }

func TestAccessLatencyMagnitude(t *testing.T) {
	// Paper §V-E: Path ORAM accesses finish in thousands of nanoseconds.
	r := newRig(t, 0, DefaultPace)
	r.run(0, 500000)
	st := r.sd.Stats()
	if st.ReadPhase.Count() < 5 {
		t.Fatalf("too few phases (%d)", st.ReadPhase.Count())
	}
	readNs := clock.CPUToNanos(uint64(st.ReadPhase.Mean()))
	writeNs := clock.CPUToNanos(uint64(st.WritePhase.Mean()))
	total := readNs + writeNs
	if total < 100 || total > 20000 {
		t.Fatalf("ORAM access takes %.0f ns; expected hundreds to thousands", total)
	}
	t.Logf("read phase %.0f ns, write phase %.0f ns", readNs, writeNs)
}

func TestTreeSplitFetchesRemoteBlocks(t *testing.T) {
	for _, k := range []int{1, 2} {
		r := newRig(t, k, DefaultPace)
		r.run(0, 400000)
		st := r.sd.Stats()
		if st.Accesses.Value() < 2 {
			t.Fatalf("k=%d: too few accesses", k)
		}
		// Per access: k remote levels x Z blocks in each phase = 2 x 4k.
		// The final access may still be mid-flight with only its read-phase
		// remotes counted, so bound instead of dividing.
		wantPerAccess := uint64(2 * 4 * k)
		completed := st.WritePhase.Count()
		got := st.RemoteBlocks.Value()
		if got < wantPerAccess*completed || got > wantPerAccess*(completed+1) {
			t.Fatalf("k=%d: %d remote blocks over %d completed accesses, want %d per access",
				k, got, completed, wantPerAccess)
		}
		// Normal channels must have seen secure traffic.
		var normalReads uint64
		for _, nc := range r.normals {
			normalReads += nc.SubChannels()[0].Stats().ReadsDone.Value()
		}
		if normalReads == 0 {
			t.Fatalf("k=%d: no reads reached the normal channels", k)
		}
	}
}

func TestSplitSlowerThanNoSplit(t *testing.T) {
	// The +k messages lengthen each access; over a fixed horizon the split
	// configuration completes no more accesses than the unsplit one.
	r0 := newRig(t, 0, DefaultPace)
	r0.run(0, 400000)
	r2 := newRig(t, 2, DefaultPace)
	r2.run(0, 400000)
	if r2.sd.Stats().Accesses.Value() > r0.sd.Stats().Accesses.Value() {
		t.Fatalf("split k=2 completed %d accesses vs %d unsplit; split should not be faster",
			r2.sd.Stats().Accesses.Value(), r0.sd.Stats().Accesses.Value())
	}
}

func TestBufferedRequestServicedAfterWritePhase(t *testing.T) {
	// Saturate with real requests: each response triggers the next request
	// while the write phase still runs; nothing may deadlock.
	r := newRig(t, 0, 10)
	for i := 0; i < 10; i++ {
		if !r.engine.Access(false, uint64(i)*64*100, 0, nil) {
			t.Fatalf("request %d rejected", i)
		}
	}
	r.run(0, 2000000)
	if got := r.sd.Stats().RealAccesses.Value(); got != 10 {
		t.Fatalf("completed %d real accesses, want 10", got)
	}
	if r.engine.QueueLen() != 0 {
		t.Fatal("engine queue not drained")
	}
}

func TestEngineQueueBackPressure(t *testing.T) {
	r := newRig(t, 0, DefaultPace)
	n := 0
	for ; n < 100; n++ {
		if !r.engine.Access(false, uint64(n)*64, 0, nil) {
			break
		}
	}
	if n != 16 {
		t.Fatalf("engine accepted %d requests, want queue cap 16", n)
	}
	if r.counter("queue_full") != 1 {
		t.Fatal("queue-full not counted")
	}
}

func TestOnChipBaselineExecutes(t *testing.T) {
	p := testParams(0)
	mcs := []*mc.Controller{newMC(), newMC(), newMC(), newMC()}
	lay := layout.New(p, layout.DefaultSubtreeLevels, 0)
	sd, err := NewOnChip(DefaultSDConfig(), oram.NewSampler(p, 7), lay, mcs, testGeo())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(sd, DefaultPace, 16)
	var done uint64
	eng.Access(false, 0x1000, 0, func(c uint64) { done = c })
	for cpu := uint64(0); cpu < 300000; cpu++ {
		eng.Tick(cpu)
		if clock.IsMemEdge(cpu) {
			sd.Tick(cpu)
			for _, c := range mcs {
				c.Tick(clock.ToMem(cpu))
			}
		}
	}
	if done == 0 {
		t.Fatal("baseline read never completed")
	}
	st := sd.Stats()
	if st.Accesses.Value() < 2 {
		t.Fatal("baseline did not keep streaming dummies")
	}
	// Every channel must carry ORAM traffic (blocks striped across all 4).
	for i, c := range mcs {
		if c.Stats().ReadsDone.Value() == 0 {
			t.Fatalf("channel %d saw no ORAM reads", i)
		}
	}
}

func TestOnChipRejectsSplitLayout(t *testing.T) {
	p := testParams(1)
	if _, err := NewOnChip(DefaultSDConfig(), oram.NewSampler(p, 7),
		layout.New(p, layout.DefaultSubtreeLevels, 1),
		[]*mc.Controller{newMC()}, testGeo()); err == nil {
		t.Fatal("on-chip baseline accepted a split layout")
	}
}

func TestNewSDValidation(t *testing.T) {
	p := testParams(0)
	secure, err := bob.NewSimpleController(bob.MustLink(bob.DefaultLinkConfig()),
		[]*mc.Controller{newMC()}, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Mismatched levels between sampler and layout.
	pBig := testParams(2)
	if _, err := NewSD(DefaultSDConfig(), oram.NewSampler(pBig, 1),
		layout.New(p, layout.DefaultSubtreeLevels, 0), secure, nil, testGeo()); err == nil {
		t.Fatal("level mismatch accepted")
	}
	// Split without normal channels.
	pk := testParams(1)
	if _, err := NewSD(DefaultSDConfig(), oram.NewSampler(pk, 1),
		layout.New(pk, layout.DefaultSubtreeLevels, 1), secure, nil, testGeo()); err == nil {
		t.Fatal("split without normal channels accepted")
	}
}

func TestOverlapPhasesIncreasesThroughput(t *testing.T) {
	// [39]'s read/write phase acceleration: overlapping access n+1's read
	// phase with access n's write-back must raise ORAM throughput over
	// the paper's strict buffering.
	run := func(overlap bool) uint64 {
		r := newRig(t, 0, 10)
		r.sd.SetOverlapPhases(overlap)
		r.run(0, 600000)
		return r.sd.Stats().WritePhase.Count() // completed accesses
	}
	serial, overlapped := run(false), run(true)
	if overlapped <= serial {
		t.Fatalf("overlap completed %d accesses vs %d serial; no acceleration", overlapped, serial)
	}
	t.Logf("accesses in fixed horizon: serial %d, overlapped %d", serial, overlapped)
}

func TestOverlapPreservesCorrectness(t *testing.T) {
	r := newRig(t, 1, 10) // with tree split for the remote paths too
	r.sd.SetOverlapPhases(true)
	done := 0
	for i := 0; i < 12; i++ {
		if !r.engine.Access(false, uint64(i)*6400, 0, func(uint64) { done++ }) {
			t.Fatalf("request %d rejected", i)
		}
	}
	r.run(0, 3000000)
	if done != 12 {
		t.Fatalf("%d/12 reads completed under overlap", done)
	}
	if r.engine.QueueLen() != 0 {
		t.Fatal("engine queue not drained")
	}
}

// TestSDStreamingSlowsSecureChannelNS pins the paper's central mechanism:
// an NS request on the secure channel waits behind the delegated ORAM
// storm (§III-D), far longer than on an idle channel.
func TestSDStreamingSlowsSecureChannelNS(t *testing.T) {
	nsLatency := func(withORAM bool) uint64 {
		r := newRig(t, 0, DefaultPace)
		if withORAM {
			r.run(0, 50000) // let the dummy stream reach steady state
		}
		var total, n uint64
		start := uint64(50000)
		for i := 0; i < 20; i++ {
			var done uint64
			req := &bob.NSRequest{
				Coord:  addrmap.Coord{Bus: i % 4, Bank: 3, Row: 900 + int64(i), Col: 0},
				OnDone: func(c uint64) { done = c },
			}
			sent := start
			if !r.secure.Submit(req, sent) {
				t.Fatal("submit rejected")
			}
			for cpu := start; done == 0 && cpu < start+100000; cpu++ {
				r.engine.Tick(cpu)
				if clock.IsMemEdge(cpu) {
					r.sd.Tick(cpu)
					r.secure.Tick(cpu)
					for _, nc := range r.normals {
						nc.Tick(cpu)
					}
				}
			}
			if done == 0 {
				t.Fatal("NS read starved on the secure channel")
			}
			total += done - sent
			n++
			start = done + 200
		}
		return total / n
	}
	// The no-ORAM rig still builds an engine but we never tick it past 0,
	// so the channel stays idle.
	idle := func() uint64 {
		r := newRig(t, 0, DefaultPace)
		var total, n uint64
		start := uint64(0)
		for i := 0; i < 20; i++ {
			var done uint64
			req := &bob.NSRequest{
				Coord:  addrmap.Coord{Bus: i % 4, Bank: 3, Row: 900 + int64(i), Col: 0},
				OnDone: func(c uint64) { done = c },
			}
			sent := start
			r.secure.Submit(req, sent)
			for cpu := start; done == 0 && cpu < start+100000; cpu++ {
				if clock.IsMemEdge(cpu) {
					r.secure.Tick(cpu)
				}
			}
			total += done - sent
			n++
			start = done + 200
		}
		return total / n
	}()
	busy := nsLatency(true)
	if busy <= idle+50 {
		t.Fatalf("NS latency with ORAM streaming (%d cyc) not above idle channel (%d cyc)", busy, idle)
	}
	t.Logf("secure-channel NS read: idle %d cyc, under ORAM %d cyc", idle, busy)
}
