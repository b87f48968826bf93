package addrmap

import (
	"testing"
	"testing/quick"
)

func geo() Geometry {
	return Geometry{Ranks: 1, Banks: 8, RowBytes: 8192, LineBytes: 64}
}

func TestGeometryValidate(t *testing.T) {
	if err := geo().Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	bad := []Geometry{
		{Ranks: 0, Banks: 8, RowBytes: 8192, LineBytes: 64},
		{Ranks: 1, Banks: 0, RowBytes: 8192, LineBytes: 64},
		{Ranks: 1, Banks: 8, RowBytes: 32, LineBytes: 64},
		{Ranks: 1, Banks: 8, RowBytes: 8192, LineBytes: 0},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: invalid geometry accepted", i)
		}
	}
}

func TestOpenPageStreamStaysInRow(t *testing.T) {
	m := New(geo(), []int{0, 1, 2, 3})
	// A sequential stream should revisit the same row on each bus for
	// ColumnsPerRow lines before changing banks.
	first := m.Map(0)
	for i := uint64(0); i < 4*geo().ColumnsPerRow(); i++ {
		c := m.Map(i * 64)
		if int(i%4) != c.Bus {
			t.Fatalf("line %d: bus = %d, want %d", i, c.Bus, i%4)
		}
		if c.Row != first.Row || c.Bank != first.Bank {
			t.Fatalf("line %d: left row %d bank %d early (got row %d bank %d)",
				i, first.Row, first.Bank, c.Row, c.Bank)
		}
	}
	// The next line on bus 0 must move to a new bank (row exhausted).
	c := m.Map(4 * geo().ColumnsPerRow() * 64)
	if c.Bank == first.Bank && c.Row == first.Row {
		t.Fatal("stream did not advance past the first row")
	}
}

func TestRestrictedBusSet(t *testing.T) {
	m := New(geo(), []int{1, 2, 3})
	for i := uint64(0); i < 100; i++ {
		c := m.Map(i * 64)
		if c.Bus == 0 {
			t.Fatalf("line %d mapped to excluded bus 0", i)
		}
	}
}

func TestMapUnmapRoundTrip(t *testing.T) {
	for _, buses := range [][]int{{0}, {0, 1, 2, 3}, {1, 2, 3}, {4, 5, 6}} {
		m := New(geo(), buses)
		f := func(line uint32) bool {
			addr := uint64(line) * 64
			back, err := m.Unmap(m.Map(addr))
			return err == nil && back == addr
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("buses=%v: %v", buses, err)
		}
	}
}

func TestUnmapRejectsForeignBus(t *testing.T) {
	m := New(geo(), []int{1, 2})
	if _, err := m.Unmap(Coord{Bus: 0}); err == nil {
		t.Fatal("Unmap accepted a bus outside the mapper's set")
	}
}

// TestMapIsInjective proves distinct line addresses never collide on the
// same coordinate (within a large window).
func TestMapIsInjective(t *testing.T) {
	m := New(geo(), []int{0, 1, 2})
	seen := make(map[Coord]uint64)
	for i := uint64(0); i < 1<<15; i++ {
		addr := i * 64
		c := m.Map(addr)
		if prev, dup := seen[c]; dup {
			t.Fatalf("addresses %#x and %#x both map to %+v", prev, addr, c)
		}
		seen[c] = addr
	}
}

func TestNewPanicsOnEmptyBusSet(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted an empty bus set")
		}
	}()
	New(geo(), nil)
}

func TestBusesReturnsCopy(t *testing.T) {
	m := New(geo(), []int{0, 1})
	b := m.Buses()
	b[0] = 99
	if m.Buses()[0] == 99 {
		t.Fatal("Buses leaked internal slice")
	}
}
