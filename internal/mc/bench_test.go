package mc

import (
	"testing"

	"doram/internal/addrmap"
	"doram/internal/dram"
	"doram/internal/xrand"
)

// fullQueues is a controller whose read and write queues are topped up to
// capacity before every tick: the DDR3-1600 single-rank, 8-bank channel
// and default configuration of the evaluation, fed uniformly random
// (bank, row, column) lines, one write in four. Completed requests are
// recycled, so steady-state allocations are the controller's own.
type fullQueues struct {
	c       *Controller
	rng     *xrand.Rand
	free    []*Request
	recycle func(*Request, uint64)
	now     uint64
}

func newFullQueues() *fullQueues {
	f := &fullQueues{c: New(dram.NewChannel(dram.DDR31600(), 1, 8), DefaultConfig()), rng: xrand.New(1)}
	f.recycle = func(r *Request, _ uint64) { f.free = append(f.free, r) }
	return f
}

// tick refills both queues and advances the controller one memory cycle.
func (f *fullQueues) tick() {
	for {
		var r *Request
		if n := len(f.free); n > 0 {
			r, f.free = f.free[n-1], f.free[:n-1]
		} else {
			r = new(Request)
		}
		op := OpRead
		if f.rng.Intn(4) == 0 {
			op = OpWrite
		}
		at := addrmap.Coord{Bank: f.rng.Intn(8), Row: int64(f.rng.Intn(256)), Col: f.rng.Intn(128)}
		*r = Request{Op: op, Coord: at, OnComplete: f.recycle}
		if !f.c.Enqueue(r, f.now) {
			f.free = append(f.free, r)
			break
		}
	}
	f.c.Tick(f.now)
	f.now++
}

// BenchmarkControllerTick is one controller tick with full queues, the
// shape of perfbench's mc.tick_ns harness.
func BenchmarkControllerTick(b *testing.B) {
	f := newFullQueues()
	for i := 0; i < 10_000; i++ {
		f.tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.tick()
	}
}

// TestTickSteadyStateAllocs guards the scheduler's hot path: once the
// queues and the in-flight list have grown to their working size, a tick
// with full queues allocates nothing.
func TestTickSteadyStateAllocs(t *testing.T) {
	f := newFullQueues()
	for i := 0; i < 10_000; i++ {
		f.tick()
	}
	if a := testing.AllocsPerRun(1000, f.tick); a != 0 {
		t.Fatalf("a steady-state tick allocates %v times, want 0", a)
	}
}
