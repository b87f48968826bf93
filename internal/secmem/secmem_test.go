package secmem

import (
	"testing"

	"doram/internal/addrmap"
	"doram/internal/dram"
	"doram/internal/mc"
)

func newRig(t *testing.T) (*SecMem, []*mc.Controller) {
	t.Helper()
	mcCfg := mc.DefaultConfig()
	mcCfg.RefreshEnabled = false
	var mcs []*mc.Controller
	for i := 0; i < 4; i++ {
		mcs = append(mcs, mc.New(dram.NewChannel(dram.DDR31600(), 1, 8), mcCfg))
	}
	geo := addrmap.Geometry{Ranks: 1, Banks: 8, RowBytes: 8192, LineBytes: 64}
	mapper := addrmap.New(geo, []int{0, 1, 2, 3})
	return New(mcs, mapper, 0), mcs
}

func tick(mcs []*mc.Controller, from, n uint64) {
	for now := from; now < from+n; now++ {
		for _, c := range mcs {
			c.Tick(now)
		}
	}
}

func TestReadCompletesWithCryptoOverhead(t *testing.T) {
	s, mcs := newRig(t)
	var done uint64
	if !s.Access(false, 0x1000, 0, func(c uint64) { done = c }) {
		t.Fatal("access rejected")
	}
	tick(mcs, 0, 500)
	if done == 0 {
		t.Fatal("read never completed")
	}
	// Completion includes the crypto latency on top of the DRAM access.
	tm := dram.DDR31600()
	min := 4*(tm.RCD+tm.CL+tm.BurstCycles) + cryptoCycles
	if done < min {
		t.Fatalf("done at %d, below physical floor %d", done, min)
	}
}

func TestEveryChannelSeesTraffic(t *testing.T) {
	s, mcs := newRig(t)
	for i := 0; i < 8; i++ {
		// Every real line on channel 0 (line stride 4 channels).
		s.Access(i%2 == 0, uint64(i)*4*64, 0, nil)
	}
	tick(mcs, 0, 4000)
	// Shape hiding: dummies carry reads and writes to the other three
	// channels, though no real line lives there.
	for i, c := range mcs {
		if c.Stats().ReadsDone.Value() == 0 {
			t.Fatalf("channel %d saw no read-shaped traffic", i)
		}
		if c.Stats().WritesDone.Value() == 0 {
			t.Fatalf("channel %d saw no write-shaped traffic", i)
		}
	}
}

func TestTrafficAmplification(t *testing.T) {
	s, mcs := newRig(t)
	const n = 16
	for i := 0; i < n; i++ {
		if !s.Access(false, uint64(i)*64*1024, 0, nil) {
			t.Fatalf("access %d rejected", i)
		}
	}
	tick(mcs, 0, 10000)
	var total uint64
	for _, c := range mcs {
		total += c.Stats().ReadsDone.Value() + c.Stats().WritesDone.Value()
	}
	// Each access becomes 4 read-shaped + 4 write-shaped transactions.
	if total < n*7 {
		t.Fatalf("total transactions %d, want ~%d (8 per access)", total, n*8)
	}
}

func TestRereadForwardsFromWriteback(t *testing.T) {
	s, mcs := newRig(t)
	// The shaped writeback targets the accessed line, so a prompt re-read
	// forwards from the write queue — as the memory controller would.
	s.Access(false, 0x2000, 0, nil)
	var done uint64
	s.Access(false, 0x2000, 1, func(c uint64) { done = c })
	if done == 0 {
		tick(mcs, 0, 1000)
	}
	if done == 0 {
		t.Fatal("re-read never completed")
	}
	// A read to a different line must not forward.
	var other uint64
	s.Access(false, 0x9000, 2, func(c uint64) { other = c })
	if other != 0 {
		t.Fatal("unrelated read forwarded from a shaped write")
	}
	tick(mcs, 0, 2000)
	if other == 0 {
		t.Fatal("unrelated read never completed")
	}
}

func TestBackPressureWhenRealChannelFull(t *testing.T) {
	mcCfg := mc.DefaultConfig()
	mcCfg.RefreshEnabled = false
	mcCfg.ReadQueueCap = 2
	var mcs []*mc.Controller
	for i := 0; i < 4; i++ {
		mcs = append(mcs, mc.New(dram.NewChannel(dram.DDR31600(), 1, 8), mcCfg))
	}
	geo := addrmap.Geometry{Ranks: 1, Banks: 8, RowBytes: 8192, LineBytes: 64}
	s := New(mcs, addrmap.New(geo, []int{0, 1, 2, 3}), 0)
	accepted := 0
	for i := 0; i < 20; i++ {
		// All to channel 0 (line stride 4 channels): line%4==0.
		if s.Access(false, uint64(i)*4*64, 0, nil) {
			accepted++
		}
	}
	if accepted > 2 {
		t.Fatalf("accepted %d reads into a 2-deep queue", accepted)
	}
	if got := mcs[0].Stats().ReadRejects.Value(); got != uint64(20-accepted) {
		t.Fatalf("channel 0 rejected %d reads, want the %d the port refused", got, 20-accepted)
	}
}
