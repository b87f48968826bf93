// Package core assembles complete simulated systems for every scheme the
// paper evaluates (§V) and runs the co-run simulation loop: trace-driven
// ROB cores over either a direct-attached 4-channel DDR3 memory system or
// the BOB-based D-ORAM architecture with a secure delegator on channel 0.
package core

import (
	"fmt"

	"doram/internal/addrmap"
	"doram/internal/dram"
	"doram/internal/oram"
	"doram/internal/oram/backend"
	"doram/internal/trace"
)

// Scheme selects the protection architecture.
type Scheme int

// Evaluated schemes.
const (
	// NonSecure runs only NS-Apps on the direct-attached system: the solo
	// (1NS) and channel-partition (7NS-3ch / 7NS-4ch) reference points.
	NonSecure Scheme = iota
	// PathORAMBaseline runs the S-App under on-chip Path ORAM across the
	// direct-attached channels — the paper's Baseline.
	PathORAMBaseline
	// SecureMemory runs the S-App under the ObfusMem/InvisiMem-style
	// trusted-memory model (Figure 4 comparator).
	SecureMemory
	// DORAM runs the BOB architecture with the secure delegator on
	// channel 0, optional tree split (+k) and secure-channel sharing (/c).
	DORAM
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case NonSecure:
		return "non-secure"
	case PathORAMBaseline:
		return "path-oram"
	case SecureMemory:
		return "secure-memory"
	case DORAM:
		return "d-oram"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// NumChannels is the number of off-chip memory channels (Table II).
const NumChannels = 4

// SecureSubChannels is the sub-channel count of D-ORAM's secure channel.
const SecureSubChannels = 4

// AllNS lets every NS-App use the secure channel (D-ORAM default).
const AllNS = -1

// Config describes one simulation run.
type Config struct {
	Scheme    Scheme
	Benchmark string // Table III workload; S-App and NS-Apps run the same program

	NumNS   int
	HasSApp bool
	// NumS is the number of S-App copies (0 with HasSApp means 1). The
	// paper's §III-C motivates the tree split with multi-S-App capacity
	// pressure on the secure channel; each S-App gets its own engine,
	// delegator instance and ORAM tree region.
	NumS int

	// NSChannels restricts which channels NS-Apps may allocate on
	// (channel-partition studies). Nil means all channels.
	NSChannels []int

	// SecureSharers is D-ORAM's c: how many NS-Apps may also allocate on
	// the secure channel. AllNS (or >= NumNS) lets all of them.
	SecureSharers int

	// SplitK is D-ORAM's tree-split depth k (0 = no split). The ORAM tree
	// is expanded by k levels, growing capacity by 2^k, and the bottom k
	// levels move to the normal channels (§III-C).
	SplitK int

	// TraceLen is the number of memory accesses each core replays.
	TraceLen uint64

	Seed uint64

	// Pace is the timing-protection interval t (§III-B).
	Pace uint64

	// CoopThreshold is the bandwidth-preallocation share for ORAM traffic
	// on channels it shares with NS-Apps (§IV, from [39]).
	CoopThreshold float64

	// MaxCycles bounds the run (safety net against livelock bugs).
	MaxCycles uint64

	// LatencyWarmup discards each latency stream's first N observations
	// (cold-start queues and row buffers) from the reported statistics.
	// Execution-time metrics are end-to-end and unaffected.
	LatencyWarmup uint64

	// Ablation knobs (defaults reproduce the paper's configuration).

	// SubtreeLevels overrides the ORAM subtree layout depth; 0 uses the
	// paper's 7. A value of 1 degenerates to the naive level-order layout
	// that Ren et al. [32] improve on; 21, the uncached depth, lays the
	// whole secure-channel tree out as one subtree.
	SubtreeLevels int
	// LinkLatencyNs overrides the BOB buffer-logic+link latency; 0 uses
	// the paper's 15 ns.
	LinkLatencyNs float64
	// ForkPath enables the redundant-access elimination of Zhang et al.
	// [44]: consecutive ORAM paths skip their shared tree-top prefix.
	// The paper's configurations leave it off.
	ForkPath bool
	// LinkCorruptProb / LinkLossProb inject per-attempt serial-link faults
	// on every BOB link (DORAM scheme): a corrupted frame fails the
	// receiver's checksum, a lost one times out; both trigger retransmits
	// with exponential backoff. 0/0 (the default) models reliable links
	// with no framing overhead.
	LinkCorruptProb float64
	LinkLossProb    float64
	// DDR4 swaps the DDR3-1600 devices for DDR4-2400 (four bank groups,
	// sixteen banks, tCCD_L/tRRD_L spacing) — a memory-generation
	// ablation beyond the paper's Table II.
	DDR4 bool
	// OverlapPhases lets the SD start the next access's read phase while
	// the previous write phase drains ([39]'s acceleration; the paper's
	// D-ORAM buffers instead, §III-B).
	OverlapPhases bool
	// Eviction selects the ORAM write-back strategy by registry name
	// (backend.Evictions; "" = level-by-level). For the stashless timing
	// samplers only strategies that schedule extra eviction paths change
	// the address stream: deterministic-two-path adds one full path per
	// access, pricing its bandwidth through the whole memory system.
	Eviction string

	// NoFastForward disables the idle-cycle fast-forward scheduler and runs
	// the original cycle-by-cycle loop. The zero value (fast-forward on) is
	// the default; both loops produce bit-identical Results, metrics and
	// traces — the differential suite enforces it — so this exists as an
	// escape hatch and as the reference side of that comparison.
	NoFastForward bool

	// MetricsEpochCycles enables the observability subsystem: every N CPU
	// cycles the run snapshots per-channel bus utilization, queue depths,
	// write-drain state, delegator stash occupancy and link fault counters
	// into Results.Timeline, and Results.Metrics carries the full registry
	// dump. 0 (the default) disables it entirely; the instrumented hot
	// paths then pay at most a nil check.
	MetricsEpochCycles uint64

	// TraceEvents enables per-access event tracing: every component
	// records nested spans (engine request, delegator phases, link
	// packets, MC queue-wait/service, NS request lifecycle) into
	// Results.Trace, along with the per-stage latency-attribution report.
	// Off (the default) the instrumented hot paths pay at most a nil
	// check, exactly like the metrics subsystem.
	TraceEvents bool
	// TraceLimit sizes the span-event ring Results.Trace.Events is read
	// from (oldest events drop first and are counted). 0 keeps no ring:
	// the attribution report, stage histograms and slowest-access list
	// still record, but no events do. Only exporters (WriteChrome) need
	// one; they pass evtrace.DefaultLimit.
	TraceLimit int
	// TraceSample keeps every Nth ORAM access / NS request in the event
	// ring (0 or 1 = all). The attribution report always covers every
	// access regardless of sampling.
	TraceSample uint64
	// TraceOramOnly suppresses NS-request spans (sweep traces); NS
	// breakdowns are still recorded.
	TraceOramOnly bool
	// TraceTopK sizes the slowest-ORAM-accesses report (0 means
	// evtrace.DefaultTopK).
	TraceTopK int

	// Stop, when non-nil, is polled every few thousand loop iterations by
	// Run; once it returns true the run aborts with ErrStopped. It is the
	// cooperative-cancellation hook for callers that wrap a run in a
	// context or deadline (the doramd job service); a nil Stop costs the
	// loop nothing. Excluded from JSON (Results embeds Config).
	Stop func() bool `json:"-"`
}

// maxSubtreeLevels is the deepest subtree layout that differs from the
// shallower ones: the uncached levels of the paper's tree, which stay
// 21 deep under any split k (the k expanded levels are the ones moved
// off the secure channel). The layout clamps deeper settings to it.
var maxSubtreeLevels = oram.PaperParams().Levels - oram.PaperParams().TopCacheLevels + 1

// DefaultMetricsEpochCycles is the timeline sampling period callers should
// use unless they have a reason not to: 4096 CPU cycles (1.28 us at
// 3.2 GHz) resolves ORAM-access-scale behaviour without bloating dumps.
const DefaultMetricsEpochCycles = 4096

// DefaultConfig returns the paper's co-run setup: one S-App plus seven
// NS-Apps of the given benchmark under the chosen scheme.
func DefaultConfig(scheme Scheme, benchmark string) Config {
	return Config{
		Scheme:        scheme,
		Benchmark:     benchmark,
		NumNS:         7,
		HasSApp:       scheme != NonSecure,
		SecureSharers: AllNS,
		TraceLen:      20000,
		Seed:          1,
		Pace:          50,
		CoopThreshold: 0.5,
		MaxCycles:     2_000_000_000,
	}
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	if _, ok := trace.ByName(c.Benchmark); !ok {
		return fmt.Errorf("core: unknown benchmark %q", c.Benchmark)
	}
	switch {
	case c.NumNS < 0 || c.NumNS > 16:
		return fmt.Errorf("core: NumNS %d out of range", c.NumNS)
	case c.NumNS == 0 && !c.HasSApp:
		return fmt.Errorf("core: nothing to simulate")
	case c.HasSApp && c.Scheme == NonSecure:
		return fmt.Errorf("core: NonSecure scheme cannot host an S-App")
	case !c.HasSApp && c.Scheme != NonSecure:
		return fmt.Errorf("core: scheme %v requires an S-App", c.Scheme)
	case c.NumS < 0 || c.NumS > 4:
		return fmt.Errorf("core: NumS %d out of [0,4]", c.NumS)
	case c.NumS > 0 && !c.HasSApp:
		return fmt.Errorf("core: NumS > 0 requires HasSApp")
	case c.SecureSharers < AllNS:
		return fmt.Errorf("core: SecureSharers %d below AllNS (%d)", c.SecureSharers, AllNS)
	case c.SplitK < 0 || c.SplitK > 3:
		return fmt.Errorf("core: SplitK %d out of [0,3]", c.SplitK)
	case c.SplitK > 0 && c.Scheme != DORAM:
		return fmt.Errorf("core: tree split requires the DORAM scheme")
	case c.TraceLen == 0:
		return fmt.Errorf("core: TraceLen must be positive")
	case c.Pace == 0:
		return fmt.Errorf("core: Pace must be positive")
	case c.CoopThreshold <= 0 || c.CoopThreshold > 1:
		return fmt.Errorf("core: CoopThreshold out of (0,1]")
	case c.SubtreeLevels < 0:
		return fmt.Errorf("core: SubtreeLevels %d must be non-negative", c.SubtreeLevels)
	case c.SubtreeLevels > maxSubtreeLevels:
		return fmt.Errorf("core: SubtreeLevels %d above the %d uncached tree levels", c.SubtreeLevels, maxSubtreeLevels)
	case c.LinkLatencyNs < 0 || c.LinkLatencyNs != c.LinkLatencyNs:
		return fmt.Errorf("core: LinkLatencyNs %v must be non-negative", c.LinkLatencyNs)
	case c.LinkCorruptProb < 0 || c.LinkCorruptProb > 1 || c.LinkCorruptProb != c.LinkCorruptProb:
		return fmt.Errorf("core: LinkCorruptProb %v out of [0,1]", c.LinkCorruptProb)
	case c.LinkLossProb < 0 || c.LinkLossProb > 1 || c.LinkLossProb != c.LinkLossProb:
		return fmt.Errorf("core: LinkLossProb %v out of [0,1]", c.LinkLossProb)
	case (c.LinkCorruptProb > 0 || c.LinkLossProb > 0) && c.Scheme != DORAM:
		return fmt.Errorf("core: link fault injection requires the DORAM scheme")
	case c.TraceLimit < 0 || c.TraceTopK < 0:
		return fmt.Errorf("core: TraceLimit/TraceTopK must be non-negative")
	case (c.TraceLimit > 0 || c.TraceSample > 1 || c.TraceOramOnly || c.TraceTopK > 0) && !c.TraceEvents:
		return fmt.Errorf("core: trace options require TraceEvents")
	case !backend.ValidEviction(c.Eviction):
		return fmt.Errorf("core: unknown eviction strategy %q (valid: %v)",
			c.Eviction, backend.Evictions())
	}
	for _, ch := range c.NSChannels {
		if ch < 0 || ch >= NumChannels {
			return fmt.Errorf("core: NS channel %d out of range", ch)
		}
	}
	return nil
}

// nsChannelsFor returns the channel set NS-App i may use.
func (c Config) nsChannelsFor(i int) []int {
	if c.NSChannels != nil {
		return c.NSChannels
	}
	if c.Scheme == DORAM && c.SecureSharers != AllNS && i >= c.SecureSharers {
		return []int{1, 2, 3}
	}
	all := make([]int, NumChannels)
	for ch := range all {
		all[ch] = ch
	}
	return all
}

// timing returns the configured device timing.
func (c Config) timing() dram.Timing {
	if c.DDR4 {
		return dram.DDR42400()
	}
	return dram.DDR31600()
}

// geometry returns the per-bus DRAM geometry (Table II; sixteen banks
// under DDR4).
func (c Config) geometry() addrmap.Geometry {
	t := c.timing()
	banks := 8
	if c.DDR4 {
		banks = 16
	}
	return addrmap.Geometry{Ranks: 1, Banks: banks, RowBytes: t.RowBytes, LineBytes: t.LineBytes}
}
