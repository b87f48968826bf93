// Package addrmap translates flat physical line addresses into DRAM
// coordinates (bus, rank, bank, row, column). A "bus" is one DDR
// command/data bus: a direct-attached channel in the baseline system or one
// BOB sub-channel in D-ORAM.
//
// Each application owns a Mapper restricted to the set of buses the OS
// allocated to it; this is how channel partitioning (7NS-3ch), D-ORAM's
// secure channel and the /c sharing masks are expressed.
//
// The interleaving is USIMM's default open-page mapping: lines go across
// buses first, then fill a row's columns before moving to the next bank,
// so the bit order is bus | col | bank | rank | row (LSB to MSB). Streams
// enjoy long row hits plus bus parallelism.
package addrmap

import "fmt"

// Geometry describes the DRAM resources behind one bus.
type Geometry struct {
	Ranks     int
	Banks     int
	RowBytes  uint64
	LineBytes uint64
}

// ColumnsPerRow returns how many lines one row stores.
func (g Geometry) ColumnsPerRow() uint64 { return g.RowBytes / g.LineBytes }

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	if g.Ranks <= 0 || g.Banks <= 0 {
		return fmt.Errorf("addrmap: ranks/banks must be positive, got %d/%d", g.Ranks, g.Banks)
	}
	if g.LineBytes == 0 || g.RowBytes < g.LineBytes {
		return fmt.Errorf("addrmap: invalid row/line bytes %d/%d", g.RowBytes, g.LineBytes)
	}
	return nil
}

// Coord is a fully decoded DRAM location.
type Coord struct {
	Bus  int
	Rank int
	Bank int
	Row  int64
	Col  int
}

// Mapper decodes line addresses for one application. The buses slice lists
// the global bus indices the application may use, in interleave order.
type Mapper struct {
	geo   Geometry
	buses []int
}

// New builds a Mapper. It panics on invalid geometry or an empty bus set,
// which are configuration programming errors.
func New(geo Geometry, buses []int) *Mapper {
	if err := geo.Validate(); err != nil {
		panic(err)
	}
	if len(buses) == 0 {
		panic("addrmap: mapper needs at least one bus")
	}
	b := make([]int, len(buses))
	copy(b, buses)
	return &Mapper{geo: geo, buses: b}
}

// Buses returns the bus set in interleave order.
func (m *Mapper) Buses() []int {
	b := make([]int, len(m.buses))
	copy(b, m.buses)
	return b
}

// Geometry returns the per-bus geometry.
func (m *Mapper) Geometry() Geometry { return m.geo }

// Map decodes the byte address addr into a DRAM coordinate under the
// open-page interleaving (see the package comment).
func (m *Mapper) Map(addr uint64) Coord {
	line := addr / m.geo.LineBytes
	n := uint64(len(m.buses))
	bus := m.buses[line%n]
	rest := line / n
	cols := m.geo.ColumnsPerRow()
	banks := uint64(m.geo.Banks)
	ranks := uint64(m.geo.Ranks)

	col := rest % cols
	rest /= cols
	bank := rest % banks
	rest /= banks
	rank := rest % ranks
	row := rest / ranks
	return Coord{Bus: bus, Rank: int(rank), Bank: int(bank), Row: int64(row), Col: int(col)}
}

// Unmap is the inverse of Map for coordinates produced with this mapper's
// bus set. It is used by property tests to prove the mapping is a bijection.
func (m *Mapper) Unmap(c Coord) (uint64, error) {
	pos := -1
	for i, b := range m.buses {
		if b == c.Bus {
			pos = i
			break
		}
	}
	if pos < 0 {
		return 0, fmt.Errorf("addrmap: bus %d not in mapper's bus set", c.Bus)
	}
	cols := m.geo.ColumnsPerRow()
	banks := uint64(m.geo.Banks)
	ranks := uint64(m.geo.Ranks)
	rest := uint64(c.Row)
	rest = rest*ranks + uint64(c.Rank)
	rest = rest*banks + uint64(c.Bank)
	rest = rest*cols + uint64(c.Col)
	line := rest*uint64(len(m.buses)) + uint64(pos)
	return line * m.geo.LineBytes, nil
}
