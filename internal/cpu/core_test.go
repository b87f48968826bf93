package cpu

import (
	"testing"

	"doram/internal/trace"
)

// fakePort services reads after a fixed latency and can apply back-pressure.
// It counts the accesses it admits and those it rejects.
type fakePort struct {
	latency uint64
	pending []fakeOp
	reads   int
	writes  int
	rejects int
	full    bool
}

type fakeOp struct {
	done   uint64
	onDone func(uint64)
}

func (p *fakePort) Access(write bool, addr uint64, now uint64, onDone func(uint64)) bool {
	if p.full {
		p.rejects++
		return false
	}
	if write {
		p.writes++
		return true
	}
	p.reads++
	p.pending = append(p.pending, fakeOp{done: now + p.latency, onDone: onDone})
	return true
}

func (p *fakePort) tick(now uint64) {
	keep := p.pending[:0]
	for _, op := range p.pending {
		if op.done <= now {
			op.onDone(now)
		} else {
			keep = append(keep, op)
		}
	}
	p.pending = keep
}

func runCore(t *testing.T, c *Core, p *fakePort, budget uint64) uint64 {
	t.Helper()
	for now := uint64(0); now < budget; now++ {
		c.Tick(now)
		p.tick(now)
		if c.Done() {
			return c.FinishedAt()
		}
	}
	t.Fatalf("core did not finish within %d cycles (retired %d)", budget, c.Retired())
	return 0
}

func recs(n int, gap uint32, write bool) []trace.Record {
	rs := make([]trace.Record, n)
	for i := range rs {
		rs[i] = trace.Record{Gap: gap, Write: write, Addr: uint64(i) * 64}
	}
	return rs
}

func TestPureComputeThroughput(t *testing.T) {
	// 1 memory access after 3999 non-mem instructions: 4000 instructions
	// retire at 4-wide in ~1000 cycles.
	p := &fakePort{latency: 1}
	c := New(0, DefaultConfig(), trace.NewSliceReader([]trace.Record{{Gap: 3999, Addr: 0}}), p)
	fin := runCore(t, c, p, 5000)
	if c.Retired() != 4000 {
		t.Fatalf("retired %d, want 4000", c.Retired())
	}
	if fin < 999 || fin > 1100 {
		t.Fatalf("finished at %d, want about 1000 cycles (4-wide retire)", fin)
	}
}

func TestReadLatencyBlocksRetire(t *testing.T) {
	// Single dependent read with long latency dominates execution time.
	p := &fakePort{latency: 400}
	c := New(0, DefaultConfig(), trace.NewSliceReader(recs(1, 0, false)), p)
	fin := runCore(t, c, p, 2000)
	if fin < 400 {
		t.Fatalf("finished at %d, before the read returned at 400", fin)
	}
	if p.reads != 1 {
		t.Fatalf("port saw %d reads, want 1", p.reads)
	}
}

func TestWritesArePosted(t *testing.T) {
	// Writes never block retirement: many writes retire at full width.
	p := &fakePort{latency: 100000}
	c := New(0, DefaultConfig(), trace.NewSliceReader(recs(64, 3, true)), p)
	fin := runCore(t, c, p, 5000)
	// 64 records x 4 instructions = 256 instructions, ~64 cycles at 4-wide.
	if fin > 200 {
		t.Fatalf("posted writes took %d cycles; they must not block", fin)
	}
	if p.writes != 64 {
		t.Fatalf("port saw %d writes, want 64", p.writes)
	}
}

func TestROBLimitsOutstandingReads(t *testing.T) {
	// With an infinite-latency port, fetch must stop once the ROB fills:
	// at most ROBSize instructions fetched, and reads stop issuing.
	p := &fakePort{latency: 1 << 60}
	cfg := Config{ROBSize: 16, FetchWidth: 4, RetireWidth: 4}
	c := New(0, cfg, trace.NewSliceReader(recs(100, 0, false)), p)
	for now := uint64(0); now < 100; now++ {
		c.Tick(now)
	}
	if p.reads > 16 {
		t.Fatalf("%d reads in flight with a 16-entry ROB", p.reads)
	}
	if c.Retired() != 0 {
		t.Fatalf("retired %d instructions with no data returned", c.Retired())
	}
}

func TestMemoryLevelParallelism(t *testing.T) {
	// Independent reads overlap: 8 reads of latency 100 finish far sooner
	// than 800 cycles.
	p := &fakePort{latency: 100}
	c := New(0, DefaultConfig(), trace.NewSliceReader(recs(8, 0, false)), p)
	fin := runCore(t, c, p, 2000)
	if fin > 150 {
		t.Fatalf("8 independent reads took %d cycles; MLP broken", fin)
	}
}

func TestBackPressureStallsFetch(t *testing.T) {
	p := &fakePort{latency: 10, full: true}
	c := New(0, DefaultConfig(), trace.NewSliceReader(recs(4, 0, false)), p)
	for now := uint64(0); now < 50; now++ {
		c.Tick(now)
		p.tick(now)
	}
	if p.reads != 0 {
		t.Fatal("reads issued despite full port")
	}
	if p.rejects != 50 {
		t.Fatalf("port rejected %d accesses in 50 cycles, want one retry per cycle", p.rejects)
	}
	// Release pressure; the core must finish.
	p.full = false
	fin := runCore(t, c, p, 500)
	if fin == 0 || !c.Done() {
		t.Fatal("core did not recover after back-pressure released")
	}
}

func TestDoneSemantics(t *testing.T) {
	p := &fakePort{latency: 5}
	c := New(0, DefaultConfig(), trace.NewSliceReader(recs(2, 1, false)), p)
	if c.Done() {
		t.Fatal("core done before executing")
	}
	runCore(t, c, p, 500)
	if !c.Done() {
		t.Fatal("core not done after draining trace")
	}
	// Ticking a finished core is a no-op.
	r := c.Retired()
	c.Tick(10000)
	if c.Retired() != r {
		t.Fatal("retired count changed after Done")
	}
}

func TestInterleavedReadWriteOrdering(t *testing.T) {
	// Reads and writes interleave; total retired instructions must equal
	// the trace's instruction count exactly.
	var rs []trace.Record
	want := uint64(0)
	for i := 0; i < 50; i++ {
		gap := uint32(i % 7)
		rs = append(rs, trace.Record{Gap: gap, Write: i%3 == 0, Addr: uint64(i % 10 * 64)})
		want += uint64(gap) + 1
	}
	p := &fakePort{latency: 20}
	c := New(0, DefaultConfig(), trace.NewSliceReader(rs), p)
	runCore(t, c, p, 10000)
	if c.Retired() != want {
		t.Fatalf("retired %d instructions, want %d", c.Retired(), want)
	}
	if got := p.reads + p.writes; got != 50 {
		t.Fatalf("memory ops = %d, want 50", got)
	}
}
