package trace

import (
	"doram/internal/xrand"
)

// LineBytes is the cache-line granularity of all generated addresses.
const LineBytes = 64

// Generator synthesizes an infinite, deterministic memory trace matching a
// Spec. Addresses are line-aligned byte offsets within the application's
// own address space starting at 0; the system layer relocates them into a
// per-application segment.
type Generator struct {
	spec Spec
	rng  *xrand.Rand

	gapMean float64
	wsLines uint64

	streams []streamState
	burst   int // remaining accesses in the current burst
}

type streamState struct {
	cur   uint64 // current line index
	left  int    // lines until the stream jumps
	write bool   // streams alternate read- and write-dominated passes
}

// NewGenerator builds a generator for spec; identical (spec, seed) pairs
// produce identical traces. It panics on an invalid spec, which is a
// configuration programming error.
func NewGenerator(spec Spec, seed uint64) *Generator {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	g := &Generator{
		spec:    spec,
		rng:     xrand.New(seed ^ xrand.HashString(spec.Name)),
		gapMean: 1000/spec.MPKI - 1,
		wsLines: uint64(spec.WorkingSetMB) << 20 / LineBytes,
	}
	if g.gapMean < 0 {
		g.gapMean = 0
	}
	g.streams = make([]streamState, spec.Streams)
	for i := range g.streams {
		g.resetStream(i)
	}
	return g
}

// Spec returns the generator's spec.
func (g *Generator) Spec() Spec { return g.spec }

func (g *Generator) resetStream(i int) {
	g.streams[i] = streamState{
		cur:   g.rng.Uint64n(g.wsLines),
		left:  256 + g.rng.Intn(1024),
		write: g.rng.Bool(1 - g.spec.ReadFrac),
	}
}

// Next returns the following record; the stream never ends.
func (g *Generator) Next() (Record, bool) {
	var rec Record
	rec.Gap = g.nextGap()
	if g.rng.Bool(g.spec.StreamFrac) {
		i := g.rng.Intn(len(g.streams))
		s := &g.streams[i]
		rec.Addr = (s.cur % g.wsLines) * LineBytes
		rec.Write = s.write
		s.cur++
		s.left--
		if s.left <= 0 {
			g.resetStream(i)
		}
	} else {
		rec.Addr = g.rng.Uint64n(g.wsLines) * LineBytes
		rec.Write = g.rng.Bool(1 - g.spec.ReadFrac)
	}
	return rec, true
}

// nextGap draws the non-memory instruction gap before the next access,
// mixing bursty short gaps with longer exponential gaps so that the
// long-run mean matches 1000/MPKI instructions per access.
func (g *Generator) nextGap() uint32 {
	if g.burst > 0 {
		g.burst--
		return uint32(g.rng.Intn(4))
	}
	if g.rng.Bool(g.spec.BurstProb) {
		g.burst = 2 + g.rng.Intn(6)
	}
	// Compensate the burst accesses' near-zero gaps so the overall mean
	// stays at gapMean. A burst averages 4.5 accesses of mean gap 1.5, and
	// starts after a non-burst access with probability BurstProb, so the
	// idle gap absorbs the burst's share of the instruction budget.
	const burstLen, burstGap = 4.5, 1.5
	p := g.spec.BurstProb
	idleMean := g.gapMean*(1+burstLen*p) - burstLen*burstGap*p
	if idleMean < 0 {
		idleMean = 0
	}
	gap := g.rng.Exp(idleMean)
	const maxGap = 1 << 20
	if gap > maxGap {
		gap = maxGap
	}
	return uint32(gap)
}

// Limited wraps a Reader and ends it after n records; it adapts infinite
// generators to fixed-length simulation runs.
type Limited struct {
	r    Reader
	left uint64
}

// Limit returns a Reader that yields at most n records from r.
func Limit(r Reader, n uint64) *Limited { return &Limited{r: r, left: n} }

// Next implements Reader.
func (l *Limited) Next() (Record, bool) {
	if l.left == 0 {
		return Record{}, false
	}
	l.left--
	return l.r.Next()
}

// Remaining returns how many records may still be read.
func (l *Limited) Remaining() uint64 { return l.left }

// SliceReader replays a fixed record slice; tests use it to script cores.
type SliceReader struct {
	recs []Record
	pos  int
}

// NewSliceReader wraps recs in a Reader.
func NewSliceReader(recs []Record) *SliceReader { return &SliceReader{recs: recs} }

// Next implements Reader.
func (s *SliceReader) Next() (Record, bool) {
	if s.pos >= len(s.recs) {
		return Record{}, false
	}
	r := s.recs[s.pos]
	s.pos++
	return r, true
}

// Stats summarizes a finite prefix of a trace; used for calibration tests
// and the tracegen CLI.
type Stats struct {
	Records    uint64
	Reads      uint64
	Writes     uint64
	Instrs     uint64 // total instructions including memory ops
	UniqueLine uint64
}

// MPKI returns the observed memory accesses per kilo-instruction.
func (s Stats) MPKI() float64 {
	if s.Instrs == 0 {
		return 0
	}
	return float64(s.Records) / float64(s.Instrs) * 1000
}

// ReadFrac returns the observed read fraction.
func (s Stats) ReadFrac() float64 {
	if s.Records == 0 {
		return 0
	}
	return float64(s.Reads) / float64(s.Records)
}

// Measure consumes up to n records from r and summarizes them.
func Measure(r Reader, n uint64) Stats {
	var st Stats
	seen := make(map[uint64]struct{})
	for i := uint64(0); i < n; i++ {
		rec, ok := r.Next()
		if !ok {
			break
		}
		st.Records++
		st.Instrs += uint64(rec.Gap) + 1
		if rec.Write {
			st.Writes++
		} else {
			st.Reads++
		}
		seen[rec.Addr/LineBytes] = struct{}{}
	}
	st.UniqueLine = uint64(len(seen))
	return st
}
