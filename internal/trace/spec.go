// Package trace provides the memory-access traces that drive the cores.
//
// The paper uses 15 memory-intensive benchmarks from the 2012 Memory
// Scheduling Championship (PARSEC, commercial, SPEC and BioBench traces of
// 500M representative instructions). Those traces are not redistributable,
// so this package synthesizes statistically calibrated equivalents: the
// MPKI of each benchmark is taken verbatim from Table III, and the
// remaining behavioural knobs (read fraction, stream locality, working-set
// size, burstiness) are set per benchmark to span the same qualitative
// range — bandwidth-bound streamers versus latency-bound random-access
// programs — that the paper's Figures 4, 9, 11 and 12 depend on.
// Generation is fully deterministic given a seed.
package trace

import "fmt"

// Record is one entry of a memory trace: Gap non-memory instructions
// execute, then one memory access to Addr (a byte address, line aligned).
type Record struct {
	Gap   uint32
	Write bool
	Addr  uint64
}

// Reader yields a stream of trace records. Implementations must be
// deterministic for a given construction.
type Reader interface {
	// Next returns the following record. The second result is false when
	// the trace is exhausted (generators backed by synthesis never are).
	Next() (Record, bool)
}

// Spec describes the statistical shape of one benchmark's memory behaviour.
type Spec struct {
	Name  string
	Suite string

	// MPKI is memory accesses per kilo-instruction at the main-memory
	// level (post-LLC), from Table III of the paper.
	MPKI float64

	// ReadFrac is the fraction of accesses that are reads.
	ReadFrac float64

	// StreamFrac is the fraction of accesses served by sequential streams
	// (high row-buffer locality, bandwidth-bound behaviour); the rest are
	// uniform random within the working set (latency-bound behaviour).
	StreamFrac float64

	// Streams is the number of concurrent sequential streams.
	Streams int

	// WorkingSetMB bounds the random-access footprint.
	WorkingSetMB int

	// BurstProb is the probability that an access follows its predecessor
	// after a minimal gap, producing bursty arrivals.
	BurstProb float64
}

// Validate reports whether the spec can drive a generator.
func (s Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("trace: spec needs a name")
	case s.MPKI <= 0:
		return fmt.Errorf("trace %s: MPKI must be positive", s.Name)
	case s.ReadFrac < 0 || s.ReadFrac > 1:
		return fmt.Errorf("trace %s: ReadFrac out of [0,1]", s.Name)
	case s.StreamFrac < 0 || s.StreamFrac > 1:
		return fmt.Errorf("trace %s: StreamFrac out of [0,1]", s.Name)
	case s.Streams <= 0:
		return fmt.Errorf("trace %s: Streams must be positive", s.Name)
	case s.WorkingSetMB <= 0:
		return fmt.Errorf("trace %s: WorkingSetMB must be positive", s.Name)
	case s.BurstProb < 0 || s.BurstProb >= 1:
		return fmt.Errorf("trace %s: BurstProb out of [0,1)", s.Name)
	}
	return nil
}

// msc holds the 15 benchmark specs of Table III. MPKI values are the
// paper's; locality knobs encode each program's published character
// (streamcluster/libquantum/leslie3d are streaming and bandwidth-bound;
// mummer/swaptions/blackscholes are pointer-chasing or random;
// the commercial traces are transaction-like mixes).
var msc = [...]Spec{
	{Name: "black", Suite: "PARSEC", MPKI: 4.2, ReadFrac: 0.70, StreamFrac: 0.25, Streams: 2, WorkingSetMB: 64, BurstProb: 0.30},
	{Name: "face", Suite: "PARSEC", MPKI: 26.8, ReadFrac: 0.65, StreamFrac: 0.55, Streams: 4, WorkingSetMB: 96, BurstProb: 0.45},
	{Name: "ferret", Suite: "PARSEC", MPKI: 8.0, ReadFrac: 0.72, StreamFrac: 0.40, Streams: 3, WorkingSetMB: 64, BurstProb: 0.35},
	{Name: "fluid", Suite: "PARSEC", MPKI: 17.5, ReadFrac: 0.68, StreamFrac: 0.60, Streams: 4, WorkingSetMB: 128, BurstProb: 0.40},
	{Name: "stream", Suite: "PARSEC", MPKI: 12.9, ReadFrac: 0.60, StreamFrac: 0.90, Streams: 6, WorkingSetMB: 256, BurstProb: 0.50},
	{Name: "swapt", Suite: "PARSEC", MPKI: 10.9, ReadFrac: 0.70, StreamFrac: 0.30, Streams: 2, WorkingSetMB: 64, BurstProb: 0.30},
	{Name: "comm1", Suite: "COMM", MPKI: 7.3, ReadFrac: 0.62, StreamFrac: 0.35, Streams: 3, WorkingSetMB: 128, BurstProb: 0.55},
	{Name: "comm2", Suite: "COMM", MPKI: 12.6, ReadFrac: 0.60, StreamFrac: 0.50, Streams: 3, WorkingSetMB: 128, BurstProb: 0.55},
	{Name: "comm3", Suite: "COMM", MPKI: 4.2, ReadFrac: 0.64, StreamFrac: 0.20, Streams: 2, WorkingSetMB: 96, BurstProb: 0.50},
	{Name: "comm4", Suite: "COMM", MPKI: 3.7, ReadFrac: 0.62, StreamFrac: 0.30, Streams: 2, WorkingSetMB: 96, BurstProb: 0.45},
	{Name: "comm5", Suite: "COMM", MPKI: 4.5, ReadFrac: 0.63, StreamFrac: 0.35, Streams: 2, WorkingSetMB: 96, BurstProb: 0.45},
	{Name: "leslie", Suite: "SPEC", MPKI: 23.1, ReadFrac: 0.65, StreamFrac: 0.85, Streams: 6, WorkingSetMB: 256, BurstProb: 0.45},
	{Name: "libq", Suite: "SPEC", MPKI: 12.0, ReadFrac: 0.75, StreamFrac: 0.95, Streams: 2, WorkingSetMB: 64, BurstProb: 0.40},
	{Name: "mummer", Suite: "BIOBENCH", MPKI: 24.0, ReadFrac: 0.80, StreamFrac: 0.15, Streams: 2, WorkingSetMB: 256, BurstProb: 0.35},
	{Name: "tigr", Suite: "BIOBENCH", MPKI: 6.7, ReadFrac: 0.78, StreamFrac: 0.80, Streams: 4, WorkingSetMB: 128, BurstProb: 0.40},
}

// MSC returns a copy of the 15 benchmark specs of Table III.
func MSC() []Spec { return append([]Spec(nil), msc[:]...) }

// ByName returns the MSC spec with the given name.
func ByName(name string) (Spec, bool) {
	for _, s := range msc {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Names returns the benchmark names in Table III order.
func Names() []string {
	names := make([]string, len(msc))
	for i, s := range msc {
		names[i] = s.Name
	}
	return names
}
