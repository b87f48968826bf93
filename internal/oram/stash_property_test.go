package oram

// Randomized stash-occupancy property tests: random parameter draws and
// random read/write streams, asserting after every access that the stash
// respects its occupancy invariants and that data survives the constant
// reshuffling. The seed is logged on failure so a CI hit can be replayed
// locally with DORAM_PROP_SEED and shrunk by hand.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"doram/internal/oram/backend"
)

// stashPropSeed mirrors addrmap's propSeed: DORAM_PROP_SEED overrides the
// fixed default for replaying CI failures.
func stashPropSeed(t *testing.T) int64 {
	if s := os.Getenv("DORAM_PROP_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("DORAM_PROP_SEED=%q: %v", s, err)
		}
		return v
	}
	return 0x57a5_4b10
}

// TestPropertyStashInvariantsRandomStreams drives random access streams
// against random small trees and checks, after every single access:
//
//   - occupancy never exceeds capacity (overflow must surface as an error,
//     never as silent corruption),
//   - occupancy never exceeds the high-water mark and the mark is
//     monotone non-decreasing,
//   - every read returns the last value written to that address.
func TestPropertyStashInvariantsRandomStreams(t *testing.T) {
	runStashInvariants(t, "")
}

// TestPropertyStashInvariantsAllStrategies repeats the invariant suite
// under every registered eviction strategy: the occupancy and durability
// guarantees are strategy-independent protocol properties.
func TestPropertyStashInvariantsAllStrategies(t *testing.T) {
	for _, name := range backend.Evictions() {
		name := name
		t.Run(name, func(t *testing.T) { runStashInvariants(t, name) })
	}
}

// runStashInvariants drives random access streams against random small
// trees under the named eviction strategy ("" = default) and checks the
// stash invariants after every single access.
func runStashInvariants(t *testing.T, strategy string) {
	seed := stashPropSeed(t)
	r := rand.New(rand.NewSource(seed))
	for caseIdx := 0; caseIdx < 4; caseIdx++ {
		p := Params{
			Levels:         5 + r.Intn(3),
			Z:              4,
			BlockSize:      64,
			TopCacheLevels: r.Intn(3),
			StashCapacity:  300,
		}
		ctx := fmt.Sprintf("replay: DORAM_PROP_SEED=%d strategy %q case %d params %+v",
			seed, strategy, caseIdx, p)
		evict, err := backend.NewEviction(strategy)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		c, err := NewClientWithOptions(p, ClientOptions{
			Storage:  backend.NewMemStorage(p.NumNodes()),
			Key:      testKey,
			WithMAC:  r.Intn(2) == 0,
			Eviction: evict,
			Seed:     r.Uint64(),
		})
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		n := p.MaxBlocks() / 2 // paper's 50% utilization rule
		shadow := make(map[uint64][]byte, n)
		prevMax := 0
		for step := 0; step < 1200; step++ {
			addr := r.Uint64() % n
			if r.Intn(2) == 0 {
				val := []byte(fmt.Sprintf("s%06d-a%06d", step, addr))
				if _, _, err := c.Access(OpWrite, addr, val); err != nil {
					t.Fatalf("%s step %d: write %d: %v", ctx, step, addr, err)
				}
				shadow[addr] = val
			} else {
				got, _, err := c.Access(OpRead, addr, nil)
				if err != nil {
					t.Fatalf("%s step %d: read %d: %v", ctx, step, addr, err)
				}
				if want, ok := shadow[addr]; ok && !bytes.Equal(got[:len(want)], want) {
					t.Fatalf("%s step %d: block %d = %q, want %q", ctx, step, addr, got[:len(want)], want)
				}
			}
			if c.StashLen() > p.StashCapacity {
				t.Fatalf("%s step %d: stash occupancy %d exceeds capacity %d",
					ctx, step, c.StashLen(), p.StashCapacity)
			}
			if c.StashLen() > c.StashMax() {
				t.Fatalf("%s step %d: occupancy %d above high-water mark %d",
					ctx, step, c.StashLen(), c.StashMax())
			}
			if c.StashMax() < prevMax {
				t.Fatalf("%s step %d: high-water mark regressed %d -> %d",
					ctx, step, prevMax, c.StashMax())
			}
			prevMax = c.StashMax()
		}
	}
}

// TestEvictionStrategiesDifferential drives one client per registered
// eviction strategy through the same seeded read/write stream and asserts
// every read returns identical bytes across strategies: eviction changes
// only where blocks sit in the tree, never what they contain.
func TestEvictionStrategiesDifferential(t *testing.T) {
	seed := stashPropSeed(t)
	r := rand.New(rand.NewSource(seed ^ 0x_d1ff))
	p := Params{Levels: 7, Z: 4, BlockSize: 64, TopCacheLevels: 2, StashCapacity: 300}
	names := backend.Evictions()
	clients := make([]*Client, len(names))
	for i, name := range names {
		evict, err := backend.NewEviction(name)
		if err != nil {
			t.Fatal(err)
		}
		clients[i], err = NewClientWithOptions(p, ClientOptions{
			Storage:  backend.NewMemStorage(p.NumNodes()),
			Key:      testKey,
			WithMAC:  true,
			Eviction: evict,
			Seed:     12345, // identical seeds: identical remap sequences
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	n := p.MaxBlocks() / 2
	for step := 0; step < 2000; step++ {
		addr := r.Uint64() % n
		if r.Intn(2) == 0 {
			val := []byte(fmt.Sprintf("d%06d-a%06d", step, addr))
			for i, c := range clients {
				if _, _, err := c.Access(OpWrite, addr, val); err != nil {
					t.Fatalf("step %d: %s: write %d: %v", step, names[i], addr, err)
				}
			}
		} else {
			var first []byte
			for i, c := range clients {
				got, _, err := c.Access(OpRead, addr, nil)
				if err != nil {
					t.Fatalf("step %d: %s: read %d: %v", step, names[i], addr, err)
				}
				if i == 0 {
					first = got
				} else if !bytes.Equal(got, first) {
					t.Fatalf("step %d: read %d diverged: %s=%x, %s=%x",
						step, addr, names[0], first, names[i], got)
				}
			}
		}
	}
	for i, c := range clients {
		if c.EvictionName() != names[i] {
			t.Fatalf("client %d reports strategy %q, want %q", i, c.EvictionName(), names[i])
		}
	}
	// The two-path strategy must actually have evicted extra paths.
	for i, name := range names {
		extra := clients[i].ExtraEvictionPaths()
		if name == backend.EvictionDeterministicTwoPath && extra == 0 {
			t.Fatalf("%s evicted no extra paths", name)
		}
		if name != backend.EvictionDeterministicTwoPath && extra != 0 {
			t.Fatalf("%s unexpectedly evicted %d extra paths", name, extra)
		}
	}
}
