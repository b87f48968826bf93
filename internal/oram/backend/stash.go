package backend

import "fmt"

// ErrStashOverflow is returned when an access would exceed the stash
// capacity — the "critical exception that fails the protocol" the paper's
// 50% space-efficiency rule exists to avoid (§III-C).
type ErrStashOverflow struct {
	Capacity int
}

func (e ErrStashOverflow) Error() string {
	return fmt.Sprintf("oram: stash overflow (capacity %d)", e.Capacity)
}

// Stash holds blocks that have been read off their path and not yet
// written back. It keeps them sorted by address, the canonical order
// wherever selection can influence results, so equal seeds produce
// bit-identical runs under every eviction strategy.
type Stash struct {
	blocks   []*Block // ascending by Addr, one per address
	capacity int
	maxSeen  int
}

// NewStash builds a stash bounded at capacity blocks.
func NewStash(capacity int) *Stash {
	return &Stash{capacity: capacity}
}

// Len returns the current occupancy.
func (s *Stash) Len() int { return len(s.blocks) }

// MaxSeen returns the high-water occupancy observed, for overflow studies.
func (s *Stash) MaxSeen() int { return s.maxSeen }

// search returns the position of addr in the sorted blocks, or where it
// would be inserted, and whether it is present.
func (s *Stash) search(addr uint64) (int, bool) {
	lo, hi := 0, len(s.blocks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.blocks[mid].Addr < addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s.blocks) && s.blocks[lo].Addr == addr
}

// Get returns the stashed block for addr, or nil.
func (s *Stash) Get(addr uint64) *Block {
	if i, ok := s.search(addr); ok {
		return s.blocks[i]
	}
	return nil
}

// Put inserts or replaces a block. It returns ErrStashOverflow when the
// stash is full and addr is not already present.
func (s *Stash) Put(b *Block) error {
	i, ok := s.search(b.Addr)
	if ok {
		s.blocks[i] = b
		return nil
	}
	if len(s.blocks) >= s.capacity {
		return ErrStashOverflow{Capacity: s.capacity}
	}
	s.blocks = append(s.blocks, nil)
	copy(s.blocks[i+1:], s.blocks[i:])
	s.blocks[i] = b
	if len(s.blocks) > s.maxSeen {
		s.maxSeen = len(s.blocks)
	}
	return nil
}

// Remove deletes addr from the stash.
func (s *Stash) Remove(addr uint64) {
	if i, ok := s.search(addr); ok {
		copy(s.blocks[i:], s.blocks[i+1:])
		s.blocks[len(s.blocks)-1] = nil
		s.blocks = s.blocks[:len(s.blocks)-1]
	}
}

// EvictForPath selects up to max blocks from the stash that may legally be
// placed in the bucket at the given level of the path to leaf (i.e. whose
// assigned leaf shares the path prefix down to that level). Selected blocks
// are removed from the stash and appended to dst[:0], whose extended slice
// is returned, so a caller can pass the same scratch slice every time.
// Candidates are considered in ascending address order, so the selection
// is deterministic. Deeper-eligible blocks are not preferred over
// shallower ones here because the caller evicts leaf-first, which already
// realizes the standard greedy deepest-first strategy.
func (s *Stash) EvictForPath(dst []*Block, leaf uint64, level, levels, max int) []*Block {
	node := NodeAt(level, leaf, levels)
	out := dst[:0]
	kept := s.blocks[:0]
	for _, b := range s.blocks {
		if len(out) < max && NodeAt(level, b.Leaf, levels) == node {
			out = append(out, b)
		} else {
			kept = append(kept, b)
		}
	}
	clear(s.blocks[len(kept):])
	s.blocks = kept
	return out
}
