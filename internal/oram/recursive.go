package oram

import (
	"encoding/binary"
	"fmt"

	"doram/internal/oram/backend"
)

// RecursiveMap is a position map stored in smaller Path ORAMs — the
// standard recursion of Stefanov et al. for controllers whose trusted
// memory cannot hold a flat map. D-ORAM's secure delegator is exactly such
// a controller (≤1 mm² of silicon against a 16M-entry map for the paper's
// 4 GB tree), so production SDs recurse; the paper inherits this from the
// Path ORAM protocol it delegates unchanged.
//
// Construction: level 0's map entries are packed EntriesPerBlock to a
// block and stored in a smaller ORAM; that ORAM's own map recurses again,
// until the innermost map fits FinalMapEntries and lives in trusted
// memory. A Get then costs one ORAM access per level and a Set costs two
// (read-modify-write) — the bandwidth amplification Freecursive ORAM [13]
// targets.
type RecursiveMap struct {
	entriesPerBlock uint64
	outer           *packedMap // level-0 view, backed by the level-0 ORAM
	clients         []*Client  // map ORAMs, outermost first
	final           *backend.FlatMap
}

// packedMap adapts a map ORAM into a PositionMap for the level above:
// entry addr lives in slot addr%E of block addr/E. Leaves are stored
// +1-encoded so zero-filled (never-written) blocks read as unmapped.
type packedMap struct {
	client *Client
	e      uint64
}

// Get implements PositionMap.
func (m *packedMap) Get(addr uint64) uint64 {
	data, _, err := m.client.Access(OpRead, addr/m.e, nil)
	if err != nil {
		panic(fmt.Sprintf("oram: recursive map read: %v", err))
	}
	v := binary.LittleEndian.Uint64(data[(addr%m.e)*8:])
	if v == 0 {
		return backend.InvalidPath
	}
	return v - 1
}

// Set implements PositionMap.
func (m *packedMap) Set(addr uint64, leaf uint64) {
	block := addr / m.e
	data, _, err := m.client.Access(OpRead, block, nil)
	if err != nil {
		panic(fmt.Sprintf("oram: recursive map read for update: %v", err))
	}
	stored := uint64(0)
	if leaf != backend.InvalidPath {
		stored = leaf + 1
	}
	binary.LittleEndian.PutUint64(data[(addr%m.e)*8:], stored)
	if _, _, err := m.client.Access(OpWrite, block, data); err != nil {
		panic(fmt.Sprintf("oram: recursive map write: %v", err))
	}
}

// Len implements PositionMap. Counting mapped entries would need a scan of
// the untrusted ORAM, so packed levels report 0; use the RecursiveMap's
// statistics instead.
func (m *packedMap) Len() int { return 0 }

// RecursiveMapConfig sizes the recursion.
type RecursiveMapConfig struct {
	// DataBlocks is the logical block count of the data ORAM being mapped.
	DataBlocks uint64
	// EntriesPerBlock is how many leaf pointers fit one map-ORAM block
	// (at most BlockSize/8).
	EntriesPerBlock uint64
	// FinalMapEntries bounds the innermost, trusted flat map.
	FinalMapEntries uint64
	// Z, BlockSize, TopCacheLevels and StashCapacity configure the map
	// ORAMs.
	Z              int
	BlockSize      int
	TopCacheLevels int
	StashCapacity  int
	// Key encrypts the map ORAMs' buckets; Seed drives their remapping.
	Key  []byte
	Seed uint64
}

// DefaultRecursiveMapConfig returns a recursion with 8 pointers per 64 B
// block and a 1024-entry trusted final map.
func DefaultRecursiveMapConfig(dataBlocks uint64) RecursiveMapConfig {
	return RecursiveMapConfig{
		DataBlocks:      dataBlocks,
		EntriesPerBlock: 8,
		FinalMapEntries: 1024,
		Z:               4,
		BlockSize:       64,
		TopCacheLevels:  2,
		StashCapacity:   400,
		Key:             []byte("recursive-map-k!"),
		Seed:            7,
	}
}

// NewRecursiveMap builds the recursion; every map level is a functional
// Path ORAM over in-memory storage.
func NewRecursiveMap(cfg RecursiveMapConfig) (*RecursiveMap, error) {
	switch {
	case cfg.DataBlocks == 0:
		return nil, fmt.Errorf("oram: recursive map needs a nonzero data size")
	case cfg.EntriesPerBlock < 2:
		return nil, fmt.Errorf("oram: recursion needs at least 2 entries per block")
	case uint64(cfg.BlockSize) < 8*cfg.EntriesPerBlock:
		return nil, fmt.Errorf("oram: %d-byte blocks cannot hold %d leaf pointers",
			cfg.BlockSize, cfg.EntriesPerBlock)
	case cfg.FinalMapEntries < cfg.EntriesPerBlock:
		return nil, fmt.Errorf("oram: final map must hold at least one block's entries")
	}
	r := &RecursiveMap{entriesPerBlock: cfg.EntriesPerBlock}

	// Work out the level sizes, outermost first.
	var entries []uint64
	need := cfg.DataBlocks
	for need > cfg.FinalMapEntries {
		entries = append(entries, need)
		need = (need + cfg.EntriesPerBlock - 1) / cfg.EntriesPerBlock
	}
	r.final = backend.NewFlatMap(need)
	if len(entries) == 0 {
		return r, nil // the whole map fits in trusted memory
	}

	// Build the ORAM levels innermost first, threading each client in as
	// the position map of the level above it.
	r.clients = make([]*Client, len(entries))
	var inner backend.PositionMap = r.final
	seed := cfg.Seed
	for i := len(entries) - 1; i >= 0; i-- {
		blocks := (entries[i] + cfg.EntriesPerBlock - 1) / cfg.EntriesPerBlock
		p := Params{
			Levels:         levelsForBlocks(blocks, cfg.Z),
			Z:              cfg.Z,
			BlockSize:      cfg.BlockSize,
			TopCacheLevels: cfg.TopCacheLevels,
			StashCapacity:  cfg.StashCapacity,
		}
		if p.TopCacheLevels > p.Levels {
			p.TopCacheLevels = p.Levels
		}
		client, err := NewClientWithMap(p, backend.NewMemStorage(p.NumNodes()), cfg.Key, false, seed, inner)
		if err != nil {
			return nil, err
		}
		r.clients[i] = client
		inner = &packedMap{client: client, e: cfg.EntriesPerBlock}
		seed = seed*0x9e3779b97f4a7c15 + 1
	}
	r.outer = inner.(*packedMap)
	return r, nil
}

// levelsForBlocks returns the smallest tree depth whose 50%-efficiency
// capacity holds n blocks.
func levelsForBlocks(n uint64, z int) int {
	for l := 1; l <= 40; l++ {
		p := Params{Levels: l, Z: z, BlockSize: 64, TopCacheLevels: 0, StashCapacity: z}
		if p.MaxBlocks() >= n {
			return l
		}
	}
	return 40
}

// Depth returns the number of ORAM levels in the recursion (0 means the
// whole map fits trusted memory).
func (r *RecursiveMap) Depth() int { return len(r.clients) }

// MapAccesses returns the total accesses performed across all map ORAMs.
func (r *RecursiveMap) MapAccesses() uint64 {
	var n uint64
	for _, c := range r.clients {
		n += c.Accesses()
	}
	return n
}

// Get implements PositionMap.
func (r *RecursiveMap) Get(addr uint64) uint64 {
	if r.outer == nil {
		return r.final.Get(addr)
	}
	return r.outer.Get(addr)
}

// Set implements PositionMap.
func (r *RecursiveMap) Set(addr uint64, leaf uint64) {
	if r.outer == nil {
		r.final.Set(addr, leaf)
		return
	}
	r.outer.Set(addr, leaf)
}

// Len implements PositionMap; only the trusted final level is cheaply
// countable.
func (r *RecursiveMap) Len() int { return r.final.Len() }
