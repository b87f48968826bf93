package backend

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// EvictionStrategy decides which stash blocks are written back into each
// bucket during the write phase. The client calls PlanLevel leaf-first
// down the eviction path; a strategy may additionally schedule extra
// whole-path evictions per access via ExtraPaths (the trace then carries
// the extra nodes, so the timing simulator sees the added bandwidth).
//
// All strategies must be protocol-correct — only place a block in a bucket
// on its assigned path — and deterministic, so equal seeds yield
// bit-identical runs. They differ only in which eligible blocks they
// prefer when a bucket cannot hold all of them, which shifts stash
// occupancy and (for multi-path schemes) bandwidth.
type EvictionStrategy interface {
	// Name returns the registry name.
	Name() string
	// PlanLevel selects up to z blocks for the bucket at level of the path
	// to leaf, removing them from the stash. It is called with level
	// descending from levels (the leaf) to 0 (the root). The slice is
	// valid until the next call.
	PlanLevel(s *Stash, leaf uint64, level, levels, z int) []*Block
	// ExtraPaths returns additional eviction paths (leaves) to read and
	// write back after the access path, in order. Most strategies return
	// none. The slice is valid until the next call.
	ExtraPaths(levels int) []uint64
}

// Eviction registry names. The empty string selects the default.
const (
	EvictionLevelByLevel         = "level-by-level"
	EvictionGreedyByDepth        = "greedy-by-depth"
	EvictionDeterministicTwoPath = "deterministic-two-path"
)

// DefaultEviction is the strategy the empty name resolves to.
const DefaultEviction = EvictionLevelByLevel

// evictions is the strategy registry: every name with its constructor
// (strategies carry per-client state, so each client gets a fresh one).
var evictions = registry[func() EvictionStrategy]{
	{EvictionLevelByLevel, func() EvictionStrategy { return &LevelByLevel{} }},
	{EvictionGreedyByDepth, func() EvictionStrategy { return &GreedyByDepth{} }},
	{EvictionDeterministicTwoPath, func() EvictionStrategy { return &DeterministicTwoPath{} }},
}

// Evictions returns the valid eviction-strategy names, sorted.
func Evictions() []string { return evictions.names() }

// ValidEviction reports whether name selects a known strategy ("" is the
// default).
func ValidEviction(name string) bool {
	_, ok := evictions.lookup(name, DefaultEviction)
	return ok
}

// NewEviction builds a fresh instance of the named strategy. An unknown
// name lists the valid ones in the error.
func NewEviction(name string) (EvictionStrategy, error) {
	build, ok := evictions.lookup(name, DefaultEviction)
	if !ok {
		return nil, fmt.Errorf("oram: unknown eviction strategy %q (valid: %v)", name, Evictions())
	}
	return build(), nil
}

// LevelByLevel is the classic greedy write-back of Stefanov et al.: at
// each level, leaf-first, take any eligible blocks (in address order) up
// to the bucket capacity. Because deeper buckets are filled first, every
// block still lands as deep as the already-made choices allow.
type LevelByLevel struct {
	out []*Block // PlanLevel's result, reused so the call allocates nothing
}

// Name implements EvictionStrategy.
func (*LevelByLevel) Name() string { return EvictionLevelByLevel }

// PlanLevel implements EvictionStrategy.
func (l *LevelByLevel) PlanLevel(s *Stash, leaf uint64, level, levels, z int) []*Block {
	l.out = s.EvictForPath(l.out, leaf, level, levels, z)
	return l.out
}

// ExtraPaths implements EvictionStrategy.
func (*LevelByLevel) ExtraPaths(levels int) []uint64 { return nil }

// GreedyByDepth refines the per-bucket choice: when more blocks are
// eligible for a bucket than fit, it prefers the ones sharing the longest
// path prefix with the eviction path — the blocks that belong deepest
// here and nowhere else — breaking ties by address. The overflow left in
// the stash then consists of blocks with shallow affinity, which remain
// placeable on many future paths, at the cost of a sort per bucket.
type GreedyByDepth struct {
	// Scratch reused by every PlanLevel: the eligible blocks, and the
	// result.
	cands []depthCand
	out   []*Block
}

// depthCand is a block eligible for a bucket, with the depth to which its
// path shares the eviction path.
type depthCand struct {
	b     *Block
	depth int
}

// deeperFirst orders candidates by shared depth, deepest first, then by
// address; addresses are unique in a stash, so the order is total.
func deeperFirst(x, y depthCand) int {
	if x.depth != y.depth {
		return cmp.Compare(y.depth, x.depth)
	}
	return cmp.Compare(x.b.Addr, y.b.Addr)
}

// Name implements EvictionStrategy.
func (*GreedyByDepth) Name() string { return EvictionGreedyByDepth }

// PlanLevel implements EvictionStrategy.
func (g *GreedyByDepth) PlanLevel(s *Stash, leaf uint64, level, levels, z int) []*Block {
	node := NodeAt(level, leaf, levels)
	cands := g.cands[:0]
	for _, b := range s.blocks {
		if NodeAt(level, b.Leaf, levels) != node {
			continue
		}
		cands = append(cands, depthCand{b: b, depth: sharedDepth(b.Leaf, leaf, levels)})
	}
	slices.SortFunc(cands, deeperFirst)
	if len(cands) > z {
		cands = cands[:z]
	}
	out := g.out[:0]
	for _, c := range cands {
		out = append(out, c.b)
		s.Remove(c.b.Addr)
	}
	g.cands, g.out = cands, out
	return out
}

// ExtraPaths implements EvictionStrategy.
func (*GreedyByDepth) ExtraPaths(levels int) []uint64 { return nil }

// sharedDepth returns the deepest level at which the paths to leaves a and
// b coincide (levels means the paths are identical down to the leaf).
func sharedDepth(a, b uint64, levels int) int {
	d := levels
	for d > 0 && NodeAt(d, a, levels) != NodeAt(d, b, levels) {
		d--
	}
	return d
}

// DeterministicTwoPath pairs the standard leaf-first write-back with one
// extra deterministic eviction path per access, chosen by a reverse-bit
// counter (the eviction order of Gentry et al., as used by onion/ring
// ORAM): consecutive extra paths diverge at the root, sweeping the tree
// evenly. The extra path costs a full read+write (the access trace grows
// accordingly) and in exchange drains the stash harder than any
// single-path policy. Its per-bucket plan is LevelByLevel's.
type DeterministicTwoPath struct {
	LevelByLevel
	counter uint64
	extra   [1]uint64 // ExtraPaths' result, reused so the call allocates nothing
}

// Name implements EvictionStrategy.
func (*DeterministicTwoPath) Name() string { return EvictionDeterministicTwoPath }

// ExtraPaths implements EvictionStrategy.
func (d *DeterministicTwoPath) ExtraPaths(levels int) []uint64 {
	leaf := bits.Reverse64(d.counter) >> uint(64-levels)
	d.counter++
	d.extra[0] = leaf
	return d.extra[:]
}
