package addrmap

// Randomized property tests over the full generator support: random
// geometries and bus subsets, with the seed logged on failure so a
// CI hit can be replayed locally with DORAM_PROP_SEED and shrunk by hand.

import (
	"math/rand"
	"os"
	"strconv"
	"testing"
)

// propSeed returns the property-test seed: DORAM_PROP_SEED when set (to
// replay a CI failure), else a fixed default so runs are deterministic.
func propSeed(t *testing.T) int64 {
	if s := os.Getenv("DORAM_PROP_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("DORAM_PROP_SEED=%q: %v", s, err)
		}
		return v
	}
	return 0xadd2_3a9
}

// randMapper draws one mapper from the generator support: 1-4 ranks, a
// power-of-two bank count, 1-8 KB rows and a shuffled non-empty subset of
// eight global buses.
func randMapper(r *rand.Rand) (*Mapper, Geometry, []int) {
	geo := Geometry{
		Ranks:     1 + r.Intn(4),
		Banks:     []int{2, 4, 8, 16}[r.Intn(4)],
		RowBytes:  uint64(1024) << uint(r.Intn(4)),
		LineBytes: 64,
	}
	perm := r.Perm(8)
	buses := perm[:1+r.Intn(8)]
	return New(geo, buses), geo, buses
}

// TestPropertyMapUnmapRandom proves Unmap∘Map is the identity on random
// line-aligned addresses for random mapper configurations, including
// sub-line offsets (Map must treat the whole line as one coordinate).
func TestPropertyMapUnmapRandom(t *testing.T) {
	seed := propSeed(t)
	r := rand.New(rand.NewSource(seed))
	for caseIdx := 0; caseIdx < 50; caseIdx++ {
		m, geo, buses := randMapper(r)
		lines := uint64(len(buses)) * geo.ColumnsPerRow() *
			uint64(geo.Banks) * uint64(geo.Ranks) * 512 // 512 rows per bank
		for i := 0; i < 200; i++ {
			addr := (r.Uint64() % lines) * geo.LineBytes
			off := r.Uint64() % geo.LineBytes
			c := m.Map(addr + off)
			back, err := m.Unmap(c)
			if err != nil {
				t.Fatalf("replay: DORAM_PROP_SEED=%d case %d: Unmap(Map(%#x+%d)) on %+v/buses=%v: %v",
					seed, caseIdx, addr, off, geo, buses, err)
			}
			if back != addr {
				t.Fatalf("replay: DORAM_PROP_SEED=%d case %d: round trip %#x+%d -> %+v -> %#x on %+v/buses=%v",
					seed, caseIdx, addr, off, c, back, geo, buses)
			}
		}
	}
}

// TestPropertyMapInjectiveRandom proves Map is injective over a dense
// line window for random mapper configurations: two distinct lines must
// never share a DRAM coordinate, or they would silently alias.
func TestPropertyMapInjectiveRandom(t *testing.T) {
	seed := propSeed(t)
	r := rand.New(rand.NewSource(seed))
	for caseIdx := 0; caseIdx < 20; caseIdx++ {
		m, geo, buses := randMapper(r)
		seen := make(map[Coord]uint64, 4096)
		for line := uint64(0); line < 4096; line++ {
			c := m.Map(line * geo.LineBytes)
			if prev, dup := seen[c]; dup {
				t.Fatalf("replay: DORAM_PROP_SEED=%d case %d: lines %d and %d both map to %+v on %+v/buses=%v",
					seed, caseIdx, prev, line, c, geo, buses)
			}
			seen[c] = line
		}
	}
}
