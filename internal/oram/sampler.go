package oram

import (
	"slices"

	"doram/internal/metrics"
	"doram/internal/oram/backend"
	"doram/internal/xrand"
)

// Sampler produces the memory-access traces of a Path ORAM instance
// without storing any data. It maintains a real (sparse) position map and
// performs the protocol's remap-on-access, so the generated leaf sequence
// has exactly the distribution a functional client would produce: each
// access goes to the leaf the block was last remapped to, which is uniform
// and independent of the request stream.
//
// The timing simulator uses a Sampler at the paper's full scale (L=23,
// a 4 GB tree) where a functional client would need gigabytes of storage.
// Stash content does not influence which nodes an access touches (the
// write phase rewrites the same path it read), so omitting it changes no
// addresses.
type Sampler struct {
	p   Params
	pos *backend.LazyMap
	rng *xrand.Rand

	// Fork Path optimization (Zhang et al., MICRO 2015, the paper's ref
	// [44]): consecutive path accesses share a tree-top prefix; the later
	// access keeps the shared buckets in the controller and skips their
	// re-read and re-write. Enabled via SetForkPath.
	forkPath bool
	havePrev bool
	prevLeaf uint64
	skipped  uint64

	// evict mirrors the functional client's eviction-strategy seam. Only
	// strategies that schedule extra eviction paths change the sampled
	// stream (selection-order strategies shuffle stash contents, which a
	// stashless sampler has none of); deterministic-two-path appends one
	// full extra path per access, real or dummy, and the timing simulator
	// then prices that bandwidth. nil means the default single-path policy.
	evict backend.EvictionStrategy
}

// NewSampler builds a trace sampler; it panics on invalid params, a
// configuration programming error.
func NewSampler(p Params, seed uint64) *Sampler {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	r := xrand.New(seed)
	return &Sampler{p: p, pos: backend.NewLazyMap(p.NumLeaves(), r.Uint64()), rng: r}
}

// Params returns the instance parameters.
func (s *Sampler) Params() Params { return s.p }

// MappedBlocks returns how many logical blocks have been touched.
func (s *Sampler) MappedBlocks() int { return s.pos.Len() }

// Access returns the trace of an access to logical block addr and remaps
// the block.
func (s *Sampler) Access(addr uint64) Trace {
	var tr Trace
	s.AccessInto(&tr, addr)
	return tr
}

// Dummy returns the trace of a dummy access to a random path.
func (s *Sampler) Dummy() Trace {
	var tr Trace
	s.DummyInto(&tr)
	return tr
}

// AccessInto is Access writing the trace into tr, whose node slices it
// reuses: a caller that keeps tr across accesses samples without
// allocating once the slices have grown to a full trace.
func (s *Sampler) AccessInto(tr *Trace, addr uint64) {
	leaf := s.pos.Get(addr)
	s.pos.Set(addr, s.rng.Uint64n(s.p.NumLeaves()))
	s.path(tr, leaf)
}

// DummyInto is Dummy writing the trace into tr, as AccessInto does.
func (s *Sampler) DummyInto(tr *Trace) {
	s.path(tr, s.rng.Uint64n(s.p.NumLeaves()))
}

// path fills tr with the path to leaf and the strategy-scheduled extra
// eviction paths after it, exactly as the functional client merges them.
// Real and dummy accesses both go through it, so the two have one shape
// on the bus.
func (s *Sampler) path(tr *Trace, leaf uint64) {
	tr.Leaf = leaf
	tr.ReadNodes, tr.WriteNodes = tr.ReadNodes[:0], tr.WriteNodes[:0]
	s.appendPath(tr, leaf)
	if s.evict != nil {
		for _, el := range s.evict.ExtraPaths(s.p.Levels) {
			s.appendPath(tr, el)
		}
	}
}

// SetEviction installs the named eviction strategy (see backend.Evictions;
// "" keeps the default). For a stashless sampler only the extra-path
// schedule matters: selection-order strategies produce the same stream.
func (s *Sampler) SetEviction(name string) error {
	ev, err := backend.NewEviction(name)
	if err != nil {
		return err
	}
	s.evict = ev
	return nil
}

// SetForkPath toggles the Fork Path redundant-access elimination.
func (s *Sampler) SetForkPath(on bool) {
	s.forkPath = on
	s.havePrev = false
}

// SkippedNodes returns the node accesses Fork Path eliminated so far.
func (s *Sampler) SkippedNodes() uint64 { return s.skipped }

// AttachMetrics registers the sampler's position-map state under prefix
// (e.g. "sapp0.pos."). No-op on a nil registry.
func (s *Sampler) AttachMetrics(r *metrics.Registry, prefix string) {
	if r == nil {
		return
	}
	r.CounterFunc(prefix+"mapped_blocks", func() uint64 { return uint64(s.pos.Len()) })
	r.CounterFunc(prefix+"forkpath_skipped", func() uint64 { return s.skipped })
}

// appendPath appends the path to leaf to tr: its reads root to leaf, its
// write-backs leaf to root, less the levels Fork Path keeps buffered.
func (s *Sampler) appendPath(tr *Trace, leaf uint64) {
	first := s.p.TopCacheLevels
	if s.forkPath && s.havePrev {
		// Skip levels shared with the previous path: those buckets are
		// still buffered in the controller from the last write phase.
		shared := s.p.TopCacheLevels
		for shared <= s.p.Levels &&
			backend.NodeAt(shared, leaf, s.p.Levels) == backend.NodeAt(shared, s.prevLeaf, s.p.Levels) {
			shared++
		}
		s.skipped += 2 * uint64(shared-first)
		first = shared
	}
	s.prevLeaf, s.havePrev = leaf, true

	n := s.p.Levels + 1 - first
	tr.ReadNodes = slices.Grow(tr.ReadNodes, n)
	tr.WriteNodes = slices.Grow(tr.WriteNodes, n)
	for level := first; level <= s.p.Levels; level++ {
		tr.ReadNodes = append(tr.ReadNodes, backend.NodeAt(level, leaf, s.p.Levels))
	}
	for level := s.p.Levels; level >= first; level-- {
		tr.WriteNodes = append(tr.WriteNodes, backend.NodeAt(level, leaf, s.p.Levels))
	}
}
