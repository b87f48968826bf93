package backend

import (
	"errors"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"testing"
)

// refStash is the map-plus-sort stash the sorted Stash replaced: every
// ordered view collects the map and sorts it. It is the oracle for the
// sorted Stash's order, selections and occupancy accounting.
type refStash struct {
	blocks   map[uint64]*Block
	capacity int
	maxSeen  int
}

func (s *refStash) put(b *Block) error {
	if _, ok := s.blocks[b.Addr]; !ok && len(s.blocks) >= s.capacity {
		return ErrStashOverflow{Capacity: s.capacity}
	}
	s.blocks[b.Addr] = b
	if len(s.blocks) > s.maxSeen {
		s.maxSeen = len(s.blocks)
	}
	return nil
}

func (s *refStash) addrs() []uint64 {
	addrs := make([]uint64, 0, len(s.blocks))
	for addr := range s.blocks {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}

func (s *refStash) evictForPath(leaf uint64, level, levels, max int) []*Block {
	node := NodeAt(level, leaf, levels)
	var out []*Block
	for _, addr := range s.addrs() {
		if len(out) >= max {
			break
		}
		b := s.blocks[addr]
		if NodeAt(level, b.Leaf, levels) == node {
			out = append(out, b)
			delete(s.blocks, addr)
		}
	}
	return out
}

func (s *refStash) greedyByDepth(leaf uint64, level, levels, z int) []*Block {
	node := NodeAt(level, leaf, levels)
	type cand struct {
		addr  uint64
		depth int
	}
	var cands []cand
	for _, addr := range s.addrs() {
		b := s.blocks[addr]
		if NodeAt(level, b.Leaf, levels) != node {
			continue
		}
		cands = append(cands, cand{addr: addr, depth: sharedDepth(b.Leaf, leaf, levels)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].depth != cands[j].depth {
			return cands[i].depth > cands[j].depth
		}
		return cands[i].addr < cands[j].addr
	})
	if len(cands) > z {
		cands = cands[:z]
	}
	out := make([]*Block, 0, len(cands))
	for _, c := range cands {
		out = append(out, s.blocks[c.addr])
		delete(s.blocks, c.addr)
	}
	return out
}

// propSeed mirrors the other property tests: DORAM_PROP_SEED overrides
// the fixed default for replaying CI failures.
func propSeed(t *testing.T) int64 {
	if s := os.Getenv("DORAM_PROP_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("DORAM_PROP_SEED=%q: %v", s, err)
		}
		return v
	}
	return 0x50_27ed
}

// TestPropertyStashOrderMatchesReference drives random Put (new and
// replacing), Remove (present and absent), EvictForPath and
// GreedyByDepth.PlanLevel calls against the sorted Stash and the
// map-plus-sort reference, and after every step requires the same
// Len, MaxSeen, lookups, overflow errors, and evicted blocks in the same
// order. Each case reuses one eviction scratch slice and one
// GreedyByDepth, as the client does.
func TestPropertyStashOrderMatchesReference(t *testing.T) {
	seed := propSeed(t)
	t.Logf("seed %d (replay with DORAM_PROP_SEED=%d)", seed, seed)
	r := rand.New(rand.NewSource(seed))
	for c := 0; c < 200; c++ {
		levels := 1 + r.Intn(10)
		capacity := 1 + r.Intn(64)
		addrSpace := uint64(1 + r.Intn(3*capacity))
		s := NewStash(capacity)
		ref := &refStash{blocks: map[uint64]*Block{}, capacity: capacity}
		var evicted []*Block
		greedy := &GreedyByDepth{}
		for step := 0; step < 300; step++ {
			fail := func(format string, args ...any) {
				t.Helper()
				args = append([]any{seed, c, levels, capacity, addrSpace, step}, args...)
				t.Fatalf("replay: DORAM_PROP_SEED=%d case %d (levels %d, capacity %d, %d addrs) step %d: "+format, args...)
			}
			leaf := uint64(r.Int63n(1 << uint(levels)))
			switch op := r.Intn(10); {
			case op < 5:
				b := &Block{Addr: uint64(r.Int63n(int64(addrSpace))), Leaf: leaf}
				err, want := s.Put(b), ref.put(b)
				if !errors.Is(err, want) {
					fail("Put(%d) = %v, reference %v", b.Addr, err, want)
				}
			case op < 7:
				addr := uint64(r.Int63n(int64(addrSpace)))
				s.Remove(addr)
				delete(ref.blocks, addr)
			default:
				level := r.Intn(levels + 1)
				max := 1 + r.Intn(6)
				var got, want []*Block
				if op < 9 {
					evicted = s.EvictForPath(evicted, leaf, level, levels, max)
					got, want = evicted, ref.evictForPath(leaf, level, levels, max)
				} else {
					got = greedy.PlanLevel(s, leaf, level, levels, max)
					want = ref.greedyByDepth(leaf, level, levels, max)
				}
				if !sameBlocks(got, want) {
					fail("op %d at leaf %d level %d max %d evicted %v, reference %v", op, leaf, level, max, addrsOf(got), addrsOf(want))
				}
			}
			if s.Len() != len(ref.blocks) || s.MaxSeen() != ref.maxSeen {
				fail("Len/MaxSeen = %d/%d, reference %d/%d", s.Len(), s.MaxSeen(), len(ref.blocks), ref.maxSeen)
			}
			if addr := uint64(r.Int63n(int64(addrSpace))); s.Get(addr) != ref.blocks[addr] {
				fail("Get(%d) disagrees with the reference", addr)
			}
		}
	}
}

// sameBlocks reports whether a and b hold the same *Block values in the
// same order.
func sameBlocks(a, b []*Block) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func addrsOf(bs []*Block) []uint64 {
	out := make([]uint64, len(bs))
	for i, b := range bs {
		out[i] = b.Addr
	}
	return out
}
