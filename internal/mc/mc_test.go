package mc

import (
	"testing"

	"doram/internal/addrmap"
	"doram/internal/dram"
)

func newTestController(cfg Config) *Controller {
	ch := dram.NewChannel(dram.DDR31600(), 1, 8)
	return New(ch, cfg)
}

func coord(bank int, row int64, col int) addrmap.Coord {
	return addrmap.Coord{Bus: 0, Rank: 0, Bank: bank, Row: row, Col: col}
}

// run ticks the controller until want completions were observed or the
// cycle budget is spent; it returns the completion times.
func run(t *testing.T, c *Controller, start uint64, want int, budget uint64, done *[]uint64) uint64 {
	t.Helper()
	now := start
	for cyc := uint64(0); cyc < budget; cyc++ {
		c.Tick(now)
		now++
		if len(*done) >= want {
			return now
		}
	}
	t.Fatalf("only %d/%d completions within %d cycles", len(*done), want, budget)
	return now
}

func TestSingleReadLatency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	c := newTestController(cfg)
	var done []uint64
	r := &Request{Op: OpRead, Coord: coord(0, 5, 0),
		OnComplete: func(_ *Request, d uint64) { done = append(done, d) }}
	if !c.Enqueue(r, 0) {
		t.Fatal("enqueue rejected on empty queue")
	}
	run(t, c, 0, 1, 200, &done)
	tm := dram.DDR31600()
	// Closed bank: ACT at 0, RD at tRCD, data at tRCD+CL+burst.
	want := tm.RCD + tm.CL + tm.BurstCycles
	if done[0] != want {
		t.Fatalf("read done at %d, want %d", done[0], want)
	}
}

func TestRowHitFasterThanRowMiss(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false

	// Two reads to the same row: second should complete quickly after first.
	c := newTestController(cfg)
	var done []uint64
	cb := func(_ *Request, d uint64) { done = append(done, d) }
	c.Enqueue(&Request{Op: OpRead, Coord: coord(0, 5, 0), OnComplete: cb}, 0)
	c.Enqueue(&Request{Op: OpRead, Coord: coord(0, 5, 1), OnComplete: cb}, 0)
	run(t, c, 0, 2, 400, &done)
	hitGap := done[1] - done[0]

	// Two reads to different rows in the same bank: conflict.
	c2 := newTestController(cfg)
	var done2 []uint64
	cb2 := func(_ *Request, d uint64) { done2 = append(done2, d) }
	c2.Enqueue(&Request{Op: OpRead, Coord: coord(0, 5, 0), OnComplete: cb2}, 0)
	c2.Enqueue(&Request{Op: OpRead, Coord: coord(0, 9, 0), OnComplete: cb2}, 0)
	run(t, c2, 0, 2, 400, &done2)
	missGap := done2[1] - done2[0]

	if hitGap >= missGap {
		t.Fatalf("row hit gap %d not faster than row conflict gap %d", hitGap, missGap)
	}
	tm := dram.DDR31600()
	if hitGap != tm.CCD {
		t.Errorf("row hit gap = %d, want tCCD = %d", hitGap, tm.CCD)
	}
}

func TestWriteForwardingToRead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	c := newTestController(cfg)
	var wdone, rdone []uint64
	c.Enqueue(&Request{Op: OpWrite, Coord: coord(2, 7, 3),
		OnComplete: func(_ *Request, d uint64) { wdone = append(wdone, d) }}, 0)
	// Read to the same line completes instantly by forwarding.
	ok := c.Enqueue(&Request{Op: OpRead, Coord: coord(2, 7, 3),
		OnComplete: func(_ *Request, d uint64) { rdone = append(rdone, d) }}, 1)
	if !ok || len(rdone) != 1 || rdone[0] != 1 {
		t.Fatalf("forwarded read: ok=%v done=%v, want immediate completion at 1", ok, rdone)
	}
}

func TestWriteCoalescing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	c := newTestController(cfg)
	n := 0
	cb := func(_ *Request, _ uint64) { n++ }
	c.Enqueue(&Request{Op: OpWrite, Coord: coord(1, 1, 1), OnComplete: cb}, 0)
	c.Enqueue(&Request{Op: OpWrite, Coord: coord(1, 1, 1), OnComplete: cb}, 1)
	if n != 1 {
		t.Fatalf("coalesced write completions = %d, want 1 (second write merges)", n)
	}
	if _, w := c.QueueLen(); w != 1 {
		t.Fatalf("write queue holds %d entries, want 1 after coalesce", w)
	}
}

func TestReadQueueBackPressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReadQueueCap = 4
	cfg.RefreshEnabled = false
	c := newTestController(cfg)
	for i := 0; i < 4; i++ {
		if !c.Enqueue(&Request{Op: OpRead, Coord: coord(i, int64(i), 0)}, 0) {
			t.Fatalf("enqueue %d rejected below capacity", i)
		}
	}
	if c.Enqueue(&Request{Op: OpRead, Coord: coord(5, 5, 0)}, 0) {
		t.Fatal("enqueue accepted beyond capacity")
	}
	if c.Stats().ReadRejects.Value() != 1 {
		t.Fatalf("ReadRejects = %d, want 1", c.Stats().ReadRejects.Value())
	}
}

func TestWritesDrainEventually(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	c := newTestController(cfg)
	var done []uint64
	cb := func(_ *Request, d uint64) { done = append(done, d) }
	for i := 0; i < 8; i++ {
		c.Enqueue(&Request{Op: OpWrite, Coord: coord(i%8, int64(i), i), OnComplete: cb}, 0)
	}
	run(t, c, 0, 8, 2000, &done)
	if !c.Idle() {
		t.Fatal("controller not idle after draining all writes")
	}
}

func TestReadsPreemptWritesBelowWatermark(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	cfg.WriteDrainHi = 32
	c := newTestController(cfg)
	var rdone, wdone []uint64
	// A few writes below the drain watermark plus one read: the read must
	// finish before any write issues.
	for i := 0; i < 4; i++ {
		c.Enqueue(&Request{Op: OpWrite, Coord: coord(1, int64(10+i), 0),
			OnComplete: func(_ *Request, d uint64) { wdone = append(wdone, d) }}, 0)
	}
	c.Enqueue(&Request{Op: OpRead, Coord: coord(0, 5, 0),
		OnComplete: func(_ *Request, d uint64) { rdone = append(rdone, d) }}, 0)
	now := uint64(0)
	for len(rdone) == 0 && now < 500 {
		c.Tick(now)
		now++
	}
	if len(rdone) == 0 {
		t.Fatal("read starved behind writes")
	}
	if len(wdone) != 0 {
		t.Fatal("write drained while reads pending below watermark")
	}
}

func TestDrainModeActivatesAtWatermark(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	cfg.WriteDrainHi = 8
	cfg.WriteDrainLo = 2
	c := newTestController(cfg)
	var wdone []uint64
	for i := 0; i < 8; i++ {
		c.Enqueue(&Request{Op: OpWrite, Coord: coord(i%4, int64(i), 0),
			OnComplete: func(_ *Request, d uint64) { wdone = append(wdone, d) }}, 0)
	}
	// Keep the read queue non-empty the whole time.
	c.Enqueue(&Request{Op: OpRead, Coord: coord(7, 99, 0)}, 0)
	now := uint64(0)
	for len(wdone) < 6 && now < 3000 {
		c.Tick(now)
		now++
	}
	if len(wdone) < 6 {
		t.Fatalf("only %d writes drained despite hi watermark; drain mode broken", len(wdone))
	}
}

func TestCooperativeSharingLimitsSecureFraction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	cfg.CoopEnabled = true
	cfg.CoopThreshold = 0.5
	c := newTestController(cfg)

	var secDone, nsDone int
	// Saturate with interleaved secure and normal reads to disjoint banks so
	// both streams always have a ready candidate. The feed counter persists
	// across calls so the admitted mix stays balanced even when only one
	// queue slot frees per cycle.
	i := 0
	feed := func(now uint64) {
		r, _ := c.QueueLen()
		for ; r < 16; i++ {
			sec := i%2 == 0
			bank := i % 4
			if sec {
				bank += 4
			}
			req := &Request{Op: OpRead, Secure: sec,
				Coord: coord(bank, int64(now%32), i%8)}
			req.OnComplete = func(rq *Request, _ uint64) {
				if rq.Secure {
					secDone++
				} else {
					nsDone++
				}
			}
			if !c.Enqueue(req, now) {
				break
			}
			r++
		}
	}
	for now := uint64(0); now < 20000; now++ {
		feed(now)
		c.Tick(now)
	}
	total := secDone + nsDone
	if total < 100 {
		t.Fatalf("too few completions (%d) to judge sharing", total)
	}
	frac := float64(secDone) / float64(total)
	if frac > 0.60 {
		t.Fatalf("secure fraction %.2f exceeds preallocation threshold 0.5 by too much", frac)
	}
	if frac < 0.30 {
		t.Fatalf("secure fraction %.2f collapsed; sharing should be roughly balanced", frac)
	}
}

func TestRefreshDoesNotLoseRequests(t *testing.T) {
	cfg := DefaultConfig()
	c := newTestController(cfg)
	var done []uint64
	cb := func(_ *Request, d uint64) { done = append(done, d) }
	tm := dram.DDR31600()
	// Spread requests across two refresh intervals.
	now := uint64(0)
	enq := 0
	for cyc := uint64(0); cyc < 2*tm.REFI+2000; cyc++ {
		if cyc%500 == 0 {
			c.Enqueue(&Request{Op: OpRead, Coord: coord(int(enq%8), int64(enq), 0), OnComplete: cb}, now)
			enq++
		}
		c.Tick(now)
		now++
	}
	if len(done) != enq {
		t.Fatalf("%d/%d requests completed across refreshes", len(done), enq)
	}
}

func TestStarvationGuard(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	cfg.StarvationAge = 100
	c := newTestController(cfg)
	var oldDone bool
	// One old request to row A, then a continuous stream of row hits to row
	// B in the same bank that would starve it under pure FR-FCFS.
	c.Enqueue(&Request{Op: OpRead, Coord: coord(0, 100, 0),
		OnComplete: func(_ *Request, _ uint64) { oldDone = true }}, 0)
	now := uint64(0)
	for i := 0; !oldDone && now < 5000; i++ {
		c.Enqueue(&Request{Op: OpRead, Coord: coord(0, 200, i%64)}, now)
		c.Tick(now)
		now++
	}
	if !oldDone {
		t.Fatal("old request starved despite starvation guard")
	}
	if now > 2000 {
		t.Fatalf("starved request served only at cycle %d", now)
	}
}

func TestIdleReflectsState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	c := newTestController(cfg)
	if !c.Idle() {
		t.Fatal("fresh controller not idle")
	}
	var done []uint64
	c.Enqueue(&Request{Op: OpRead, Coord: coord(0, 0, 0),
		OnComplete: func(_ *Request, d uint64) { done = append(done, d) }}, 0)
	if c.Idle() {
		t.Fatal("controller idle with queued request")
	}
	run(t, c, 0, 1, 200, &done)
	// Flush may need one more tick after completion.
	if !c.Idle() {
		t.Fatal("controller not idle after completion")
	}
}

func TestFRFCFSReordersRowHits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	c := newTestController(cfg)
	var order []int64
	cb := func(r *Request, _ uint64) { order = append(order, r.Coord.Row) }
	c.Enqueue(&Request{Op: OpRead, Coord: coord(0, 5, 0), OnComplete: cb}, 0)
	c.Tick(0)
	c.Enqueue(&Request{Op: OpRead, Coord: coord(0, 9, 0), OnComplete: cb}, 1)
	c.Enqueue(&Request{Op: OpRead, Coord: coord(0, 5, 1), OnComplete: cb}, 1)
	for now := uint64(1); now < 500 && len(order) < 3; now++ {
		c.Tick(now)
	}
	want := []int64{5, 5, 9} // the row hit jumps the conflict
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("completion order %v, want %v", order, want)
		}
	}
}

func TestMixedLoadCompletes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	c := newTestController(cfg)
	remaining := 60
	cb := func(_ *Request, _ uint64) { remaining-- }
	for i := 0; i < 60; i++ {
		op := OpRead
		if i%3 == 0 {
			op = OpWrite
		}
		if !c.Enqueue(&Request{Op: op, Coord: coord(i%8, int64(i%5), i%16), OnComplete: cb}, 0) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	for now := uint64(0); now < 20000 && remaining > 0; now++ {
		c.Tick(now)
	}
	if remaining != 0 {
		t.Fatalf("%d requests never completed", remaining)
	}
}
