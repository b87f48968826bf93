package bob

import (
	"math/rand"
	"testing"

	"doram/internal/addrmap"
	"doram/internal/clock"
	"doram/internal/dram"
	"doram/internal/mc"
)

func TestLinkLatencyAndOccupancy(t *testing.T) {
	l := MustLink(DefaultLinkConfig())
	// 72 B at 4 B/cycle = 18 cycles occupancy + 48 cycles latency.
	arrive := l.SendDownFor(0, 72, 100)
	if want := uint64(100 + 18 + 48); arrive != want {
		t.Fatalf("arrival = %d, want %d", arrive, want)
	}
	// A second packet serializes behind the first.
	arrive2 := l.SendDownFor(0, 72, 100)
	if want := uint64(100 + 36 + 48); arrive2 != want {
		t.Fatalf("second arrival = %d, want %d", arrive2, want)
	}
	// Up direction is independent (full duplex).
	up := l.SendUpFor(0, 72, 100)
	if want := uint64(100 + 18 + 48); up != want {
		t.Fatalf("up arrival = %d, want %d", up, want)
	}
}

// TestLinkOccupancy pins serialization time to ceil(n/4) cycles, at least
// one, for every packet size the link carries, framed and unframed.
func TestLinkOccupancy(t *testing.T) {
	l := MustLink(DefaultLinkConfig())
	cases := []struct {
		n    int
		want uint64
	}{
		{0, 1},
		{1, 1},
		{3, 1},
		{ShortReadBytes, 2},
		{ShortReadBytes + 1, 3},
		{ShortReadBytes + FrameOverhead, 4},
		{FullPacketBytes, 18},
		{FullPacketBytes + FrameOverhead, 20},
	}
	for _, c := range cases {
		if got := l.occupancy(c.n); got != c.want {
			t.Errorf("occupancy(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestLinkShortPacketsCheaper(t *testing.T) {
	l := MustLink(DefaultLinkConfig())
	full := l.SendDownFor(0, FullPacketBytes, 0)
	l2 := MustLink(DefaultLinkConfig())
	short := l2.SendDownFor(0, ShortReadBytes, 0)
	if short >= full {
		t.Fatalf("short packet (%d) not faster than full (%d)", short, full)
	}
}

func TestLinkStats(t *testing.T) {
	l := MustLink(DefaultLinkConfig())
	l.SendDownFor(0, 72, 0)
	l.SendDownFor(0, 8, 0)
	l.SendUpFor(0, 72, 0)
	if l.DownStats().Packets.Value() != 2 || l.DownStats().Bytes.Value() != 80 {
		t.Fatalf("down stats: %d packets %d bytes",
			l.DownStats().Packets.Value(), l.DownStats().Bytes.Value())
	}
	if l.UpStats().Packets.Value() != 1 {
		t.Fatal("up stats missing packet")
	}
}

func newTestCtrl(t *testing.T, subs int) *SimpleController {
	t.Helper()
	cfg := mc.DefaultConfig()
	cfg.RefreshEnabled = false
	mcs := make([]*mc.Controller, subs)
	for i := range mcs {
		mcs[i] = mc.New(dram.NewChannel(dram.DDR31600(), 1, 8), cfg)
	}
	ctrl, err := NewSimpleController(MustLink(DefaultLinkConfig()), mcs, 32)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// randFaults corrupts or loses each transfer attempt at random.
type randFaults struct{ rng *rand.Rand }

func (f randFaults) NextOutcome() Outcome {
	switch x := f.rng.Float64(); {
	case x < 0.2:
		return Corrupted
	case x < 0.3:
		return Lost
	}
	return Delivered
}

// TestInputQueueArrivalsInLinkOrder checks the order NextEvent relies on
// to read only the input queue's head: along the queue, arrival cycles
// never decrease. Packets are submitted over a link that corrupts and
// loses attempts, while other traffic (as the secure delegator sends)
// shares the down direction with launch cycles in the future, and
// one-entry sub-channel queues leave arrived packets stuck. The head's
// horizon must also equal the minimum over the whole queue.
func TestInputQueueArrivalsInLinkOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := mc.DefaultConfig()
	cfg.RefreshEnabled = false
	cfg.ReadQueueCap, cfg.WriteQueueCap = 1, 1
	mcs := []*mc.Controller{
		mc.New(dram.NewChannel(dram.DDR31600(), 1, 8), cfg),
		mc.New(dram.NewChannel(dram.DDR31600(), 1, 8), cfg),
	}
	link := MustLink(DefaultLinkConfig())
	link.SetFaultModel(randFaults{rng})
	s, err := NewSimpleController(link, mcs, 64)
	if err != nil {
		t.Fatal(err)
	}
	stuck := 0
	for cpu := uint64(0); cpu < 40_000; cpu++ {
		switch x := rng.Intn(8); {
		case x < 2:
			s.Submit(&NSRequest{Write: x == 0, Coord: addrmap.Coord{Bus: rng.Intn(2),
				Bank: rng.Intn(8), Row: int64(rng.Intn(4))}}, cpu)
		case x == 2:
			link.SendDownFor(0, ShortReadBytes, cpu+uint64(rng.Intn(200)))
		}
		if clock.IsMemEdge(cpu) {
			s.Tick(cpu)
		}
		want := clock.Never
		for i, a := range s.inQ {
			if i > 0 && a.readyAt < s.inQ[i-1].readyAt {
				t.Fatalf("cycle %d: queue entry %d arrives at %d, before entry %d at %d",
					cpu, i, a.readyAt, i-1, s.inQ[i-1].readyAt)
			}
			if a.readyAt <= cpu {
				stuck++
			}
			want = min(want, clock.AlignMemEdge(max(a.readyAt, cpu+1)))
		}
		if len(s.inQ) > 0 {
			if got := s.NextEvent(cpu); got > want {
				t.Fatalf("cycle %d: NextEvent %d is later than the earliest queued arrival %d", cpu, got, want)
			}
		}
	}
	st := link.DownStats()
	if st.Corrupted.Value() == 0 || st.Lost.Value() == 0 || stuck == 0 {
		t.Fatalf("stream too tame: %d corrupted, %d lost, %d stuck packet-cycles",
			st.Corrupted.Value(), st.Lost.Value(), stuck)
	}
}

func TestSimpleControllerReadRoundTrip(t *testing.T) {
	s := newTestCtrl(t, 4)
	var done uint64
	r := &NSRequest{
		Coord:  addrmap.Coord{Bus: 2, Bank: 1, Row: 5, Col: 3},
		OnDone: func(c uint64) { done = c },
	}
	if !s.Submit(r, 0) {
		t.Fatal("submit rejected")
	}
	for cpu := uint64(0); cpu < 4000 && done == 0; cpu += clock.CPUPerMem {
		s.Tick(cpu)
	}
	if done == 0 {
		t.Fatal("read never completed")
	}
	// Lower bound: two link traversals (2*(18+48)) plus the DRAM access
	// (ACT+CAS+burst = 26 mem cycles = 104 CPU cycles).
	if done < 2*(18+48)+104 {
		t.Fatalf("completion at %d is faster than physically possible", done)
	}
	if !s.Idle() {
		t.Fatal("controller not idle after completion")
	}
}

func TestSimpleControllerWritePosted(t *testing.T) {
	s := newTestCtrl(t, 1)
	r := &NSRequest{Write: true, Coord: addrmap.Coord{Bank: 0, Row: 1}}
	if !s.Submit(r, 0) {
		t.Fatal("submit rejected")
	}
	for cpu := uint64(0); cpu < 8000 && !s.Idle(); cpu += clock.CPUPerMem {
		s.Tick(cpu)
	}
	if !s.Idle() {
		t.Fatal("posted write never drained")
	}
	if s.SubChannels()[0].Stats().WritesDone.Value() != 1 {
		t.Fatal("write not performed on the sub-channel")
	}
}

func TestSimpleControllerBackPressure(t *testing.T) {
	s := newTestCtrl(t, 1)
	n := 0
	for ; n < 100; n++ {
		if !s.Submit(&NSRequest{Coord: addrmap.Coord{Bank: n % 8, Row: int64(n)}}, 0) {
			break
		}
	}
	if n != 32 {
		t.Fatalf("accepted %d requests, want input queue cap 32", n)
	}
	if s.Stats().Rejected.Value() != 1 {
		t.Fatal("rejection not counted")
	}
}

func TestSimpleControllerParallelSubChannels(t *testing.T) {
	// The same request load finishes faster spread over 4 sub-channels
	// than serialized on 1: sub-channel parallelism works.
	elapsed := func(subs int) uint64 {
		s := newTestCtrl(t, subs)
		// All requests conflict in one bank (distinct rows), so each
		// sub-channel serializes on tRC and the DRAM — not the link — is
		// the bottleneck.
		remaining := 32
		for i := 0; i < 32; i++ {
			r := &NSRequest{
				Coord:  addrmap.Coord{Bus: i % subs, Bank: 0, Row: int64(i), Col: 0},
				OnDone: func(uint64) { remaining-- },
			}
			if !s.Submit(r, 0) {
				t.Fatal("submit rejected")
			}
		}
		var cpu uint64
		for ; cpu < 100000 && remaining > 0; cpu += clock.CPUPerMem {
			s.Tick(cpu)
		}
		if remaining > 0 {
			t.Fatal("requests never finished")
		}
		return cpu
	}
	if e4, e1 := elapsed(4), elapsed(1); float64(e4) > 0.7*float64(e1) {
		t.Fatalf("4 sub-channels took %d cycles vs %d on 1: no parallel speedup", e4, e1)
	}
}

// TestDirectChannel checks a direct-attached channel: Submit enqueues
// straight into the controller, a full controller queue rejects without
// buffering, and a read completes when its burst ends, with no link hop.
// A reference controller fed the same read directly gives the burst's end.
func TestDirectChannel(t *testing.T) {
	cfg := mc.DefaultConfig()
	cfg.RefreshEnabled = false
	cfg.ReadQueueCap = 1
	newMC := func() *mc.Controller { return mc.New(dram.NewChannel(dram.DDR31600(), 1, 8), cfg) }
	sub, ref := newMC(), newMC()
	s := NewDirect(sub, 2)
	if s.Link() != nil {
		t.Fatal("direct channel has a link")
	}

	const now = 10 // between memory edges: the enqueue floors to ToMem(now)
	coord := addrmap.Coord{Bank: 1, Row: 5, Col: 3}
	var done uint64
	if !s.Submit(&NSRequest{Coord: coord, OnDone: func(c uint64) { done = c }}, now) {
		t.Fatal("submit rejected")
	}
	if reads, _ := sub.QueueLen(); reads != 1 {
		t.Fatalf("controller holds %d reads after Submit, want 1 without a Tick", reads)
	}
	var refDone uint64
	ref.Enqueue(&mc.Request{Op: mc.OpRead, Coord: coord,
		OnComplete: func(_ *mc.Request, memDone uint64) { refDone = memDone }}, clock.ToMem(now))

	if s.Submit(&NSRequest{Coord: addrmap.Coord{Bank: 2, Row: 7}}, now) {
		t.Fatal("submit accepted past the controller's read queue")
	}
	if s.Stats().Rejected.Value() != 1 || s.QueueLen() != 0 {
		t.Fatalf("rejected %d, buffered %d; want 1 rejection and nothing buffered",
			s.Stats().Rejected.Value(), s.QueueLen())
	}

	for cpu := clock.AlignMemEdge(now); done == 0; cpu += clock.CPUPerMem {
		if cpu > 4000 {
			t.Fatal("read never completed")
		}
		if want := clock.ToCPU(sub.NextEvent(clock.ToMem(cpu) - 1)); s.NextEvent(cpu-1) != want {
			t.Fatalf("cycle %d: NextEvent %d, want the controller's horizon %d", cpu-1, s.NextEvent(cpu-1), want)
		}
		s.Tick(cpu)
		ref.Tick(clock.ToMem(cpu))
	}
	if refDone == 0 || done != clock.ToCPU(refDone) {
		t.Fatalf("read done at CPU cycle %d, want the burst end %d (memory cycle %d)",
			done, clock.ToCPU(refDone), refDone)
	}
	if !s.Idle() {
		t.Fatal("channel not idle after completion")
	}
}
