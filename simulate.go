package doram

import (
	"context"
	"errors"
	"fmt"

	"doram/internal/clock"
	"doram/internal/core"
	"doram/internal/delegator"
	"doram/internal/evtrace"
	"doram/internal/metrics"
	"doram/internal/stats"
	"doram/internal/trace"
)

// Scheme selects the protection architecture of a simulation run.
type Scheme string

// Supported schemes.
const (
	// SchemeNonSecure runs NS-Apps only (solo and channel-partition
	// reference points).
	SchemeNonSecure Scheme = "non-secure"
	// SchemePathORAM is the paper's baseline: on-chip Path ORAM over the
	// direct-attached channels.
	SchemePathORAM Scheme = "path-oram"
	// SchemeSecureMemory is the ObfusMem/InvisiMem-style comparator.
	SchemeSecureMemory Scheme = "secure-memory"
	// SchemeDORAM is the paper's design: BOB channels with the secure
	// delegator on channel 0.
	SchemeDORAM Scheme = "d-oram"
)

func (s Scheme) internal() (core.Scheme, error) {
	switch s {
	case SchemeNonSecure:
		return core.NonSecure, nil
	case SchemePathORAM:
		return core.PathORAMBaseline, nil
	case SchemeSecureMemory:
		return core.SecureMemory, nil
	case SchemeDORAM:
		return core.DORAM, nil
	default:
		return 0, fmt.Errorf("doram: unknown scheme %q", string(s))
	}
}

// AllNS lets every NS-App allocate on the secure channel (no /c limit).
const AllNS = core.AllNS

// SimConfig describes one co-run simulation (Table II system; the
// benchmark names and MPKIs come from Table III).
type SimConfig struct {
	Scheme    Scheme
	Benchmark string

	// NumNS is the number of NS-App copies (paper: 7).
	NumNS int
	// HasSApp runs an S-App under the scheme's protection. It defaults to
	// true for every scheme except SchemeNonSecure.
	HasSApp bool
	// NumS runs multiple S-App copies (0 with HasSApp means 1) — the
	// §III-C capacity-pressure scenario.
	NumS int
	// ForkPath enables the redundant-path-access elimination of Zhang et
	// al. (MICRO 2015), an optional optimization outside the paper's
	// evaluated configurations.
	ForkPath bool
	// OverlapPhases pipelines consecutive ORAM accesses in the SD ([39]'s
	// read/write phase acceleration; off reproduces the paper).
	OverlapPhases bool
	// Eviction selects the ORAM write-back strategy by name ("" =
	// level-by-level; see internal/oram/backend.Evictions). Strategies
	// that schedule extra eviction paths (deterministic-two-path) change
	// the simulated address stream; selection-only strategies matter to
	// the functional plane.
	Eviction string
	// DDR4 swaps DDR3-1600 for DDR4-2400 devices (bank groups).
	DDR4 bool

	// LatencyWarmup discards each latency stream's first N observations
	// (cold-start queues and row buffers) from the reported statistics;
	// execution-time metrics are end-to-end and unaffected. The sweep
	// runner uses TraceLen/20.
	LatencyWarmup uint64
	// Pace is the timing-protection interval t (§III-B) in memory cycles;
	// 0 uses the paper's 50.
	Pace uint64
	// CoopThreshold is the bandwidth-preallocation share for ORAM traffic
	// on channels it shares with NS-Apps (§IV); 0 uses the paper's 0.5.
	CoopThreshold float64
	// SubtreeLevels overrides the ORAM subtree layout depth; 0 uses the
	// paper's 7. A value of 1 degenerates to the naive level-order layout.
	SubtreeLevels int
	// LinkLatencyNs overrides the BOB buffer-logic+link latency; 0 uses
	// the paper's 15 ns.
	LinkLatencyNs float64
	// MaxCycles bounds the run as a livelock safety net; 0 uses the
	// 2-billion-cycle default.
	MaxCycles uint64

	// NSChannels restricts NS-Apps to a channel subset (e.g. []int{1,2,3}
	// for the 7NS-3ch partition). Nil means all four channels.
	NSChannels []int
	// SecureSharers is D-ORAM's c: how many NS-Apps may use channel 0.
	// Use AllNS for no limit.
	SecureSharers int
	// SplitK is D-ORAM's tree-split depth (0-3); the ORAM tree grows by
	// 2^k and the bottom k levels move to the normal channels.
	SplitK int

	// TraceLen is the number of memory accesses each core replays.
	TraceLen uint64
	Seed     uint64

	// TraceDir loads recorded traces (cmd/tracegen -o) instead of
	// synthesizing: "<Benchmark>.<core>.dtrc" per core, else a shared
	// "<Benchmark>.dtrc" rotated per core.
	TraceDir string

	// LinkCorruptProb / LinkLossProb make every BOB serial link unreliable
	// (SchemeDORAM only): each transfer attempt is independently corrupted
	// (caught by the receiver's frame checksum) or lost (times out) with
	// these probabilities, and recovered by sequence-numbered retransmission
	// with exponential backoff. The recovery cost appears in the result's
	// LinkFaults.
	LinkCorruptProb float64
	LinkLossProb    float64

	// NoFastForward disables the idle-cycle fast-forward scheduler and
	// visits every CPU cycle like the original loop. Fast-forward (the
	// default) is bit-identical in results, metrics and traces — the
	// differential test suite enforces it — so this is an escape hatch and
	// the reference side of that comparison, not a fidelity trade-off.
	NoFastForward bool

	// Metrics enables the observability subsystem: a metric registry over
	// every simulated component and a cycle-sampled timeline of bus
	// utilization, queue depths, stash occupancy and link fault counters,
	// returned in SimResult.Metrics / SimResult.Timeline. Off by default;
	// disabled runs pay at most a nil check per instrumentation point.
	Metrics bool
	// MetricsEpochCycles is the timeline sampling period in CPU cycles;
	// 0 uses DefaultMetricsEpochCycles. Setting it implies Metrics.
	MetricsEpochCycles uint64

	// Trace enables per-access event tracing: nested spans across the
	// engine, delegator, links, memory controllers and NS request paths
	// (kept for export only with TraceEventLimit), returned in
	// SimResult.Trace together with the per-stage latency
	// attribution (SimResult.LatencyBreakdown). Off by default; disabled
	// runs pay at most a nil check per instrumentation point.
	Trace bool
	// TraceEventLimit sizes the span-event ring that Trace.WriteChrome
	// exports (oldest events evicted first). 0 keeps no ring: the run
	// still returns LatencyBreakdown, Trace.Top and the stage histograms,
	// but Trace.Events stays empty. Set it only to export the trace;
	// doramsim -trace-json uses 200000. Implies Trace.
	TraceEventLimit int
	// TraceSample keeps every Nth ORAM access / NS request in the event
	// ring (0 or 1 = all); the attribution report always covers every
	// access. Values > 1 imply Trace.
	TraceSample uint64
	// TraceOramOnly suppresses NS-request spans, keeping sweep traces
	// small; NS latency breakdowns are still recorded. Implies Trace.
	TraceOramOnly bool
	// TraceTopN sizes the slowest-ORAM-accesses report in the trace
	// (0 = 16). Implies Trace.
	TraceTopN int
}

// DefaultMetricsEpochCycles is the default timeline sampling period.
const DefaultMetricsEpochCycles = core.DefaultMetricsEpochCycles

// MetricsDump is a run's final metric registry snapshot: counters,
// histograms and the sampled timeline.
type MetricsDump = metrics.Dump

// MetricsTimeline is the epoch-sampled series record of a run.
type MetricsTimeline = metrics.Timeline

// EventTrace is a run's per-access span record: events, drop/violation
// counters, the attribution report and the slowest accesses. Export it
// with WriteChrome for Perfetto / chrome://tracing.
type EventTrace = evtrace.Trace

// TraceReport is the per-stage latency-attribution report: for each
// request kind (oram, ns_read, ns_write), mean/p50/p95/p99 per stage,
// with stage means summing to the end-to-end mean.
type TraceReport = evtrace.Report

// DefaultSimConfig returns the paper's 1S7NS co-run for the scheme.
func DefaultSimConfig(scheme Scheme, benchmark string) SimConfig {
	return SimConfig{
		Scheme:        scheme,
		Benchmark:     benchmark,
		NumNS:         paperDefaults.NumNS,
		HasSApp:       scheme != SchemeNonSecure,
		SecureSharers: paperDefaults.SecureSharers,
		TraceLen:      paperDefaults.TraceLen,
		Seed:          paperDefaults.Seed,
	}
}

// paperDefaults holds the paper's configuration (core.DefaultConfig), the
// one source of the defaults DefaultSimConfig and Params.Canonical fill.
var paperDefaults = core.DefaultConfig(core.DORAM, "")

// SimResult summarizes one run. Times are in CPU cycles at 3.2 GHz unless
// stated otherwise.
type SimResult struct {
	// NSFinish is each NS core's execution time.
	NSFinish []uint64
	// AvgNSExecCycles is the mean NS execution time — the metric Figures
	// 4, 9, 10 and 11 normalize.
	AvgNSExecCycles float64
	// NSReadLatencyNs / NSWriteLatencyNs are the mean NS memory access
	// latencies (Figure 13's metric).
	NSReadLatencyNs  float64
	NSWriteLatencyNs float64
	// NSReadP50Ns / NSReadP95Ns / NSReadP99Ns are read latency percentiles
	// (upper bounds from the latency histogram).
	NSReadP50Ns float64
	NSReadP95Ns float64
	NSReadP99Ns float64
	// ORAMAccesses counts completed ORAM accesses (real + dummy).
	ORAMAccesses uint64
	// ORAMAccessNs is the mean ORAM access time (read + write phase).
	ORAMAccessNs float64
	// TotalEnergyUJ is the DRAM energy consumed over the run (microjoules).
	TotalEnergyUJ float64
	// LinkFaults summarizes serial-link fault recovery across all BOB
	// channels (all zero on reliable links or non-DORAM schemes).
	LinkFaults LinkFaultSummary
	// ChannelDataBusBusy is each channel's aggregate data-bus busy memory
	// cycles (summed over sub-channels).
	ChannelDataBusBusy []uint64
	// Metrics is the final metric dump and Timeline its sampled series
	// record; both are nil unless SimConfig.Metrics was set (Timeline is
	// the same object as Metrics.Timeline).
	Metrics  *MetricsDump     `json:",omitempty"`
	Timeline *MetricsTimeline `json:"-"`
	// Trace is the per-access event trace (nil unless SimConfig.Trace was
	// set; its Events are empty unless TraceEventLimit was). Excluded from
	// the result JSON — export it with WriteChrome.
	// LatencyBreakdown is its attribution report, inlined for convenience.
	Trace            *EventTrace  `json:"-"`
	LatencyBreakdown *TraceReport `json:",omitempty"`
	// Raw carries the exact integer aggregates behind the derived summary
	// fields above, making the serialized result self-sufficient as a wire
	// format: a remote consumer (the experiments runner targeting a doramd
	// endpoint) can rebuild the statistics without floating-point loss.
	Raw *SimRaw `json:",omitempty"`
}

// LatencyParts is the exact integer aggregate of one latency stream
// (CPU cycles), sufficient to reconstruct count, sum, mean, min and max.
type LatencyParts struct {
	Count uint64
	Sum   uint64
	Min   uint64
	Max   uint64
}

// SimRaw is the exact-aggregate companion of a SimResult (see
// SimResult.Raw). All times are CPU cycles.
type SimRaw struct {
	// Cycles is the cycle at which the last measured core retired its
	// final instruction.
	Cycles uint64
	// NSInstrs holds each NS core's retired instruction count.
	NSInstrs []uint64 `json:",omitempty"`
	// NSRead / NSWrite aggregate NS memory latencies over all cores.
	NSRead  LatencyParts
	NSWrite LatencyParts
	// ChannelRead / ChannelWrite are the per-channel NS latency aggregates.
	ChannelRead  []LatencyParts `json:",omitempty"`
	ChannelWrite []LatencyParts `json:",omitempty"`
	// ChannelEnergyUJ is each channel's DRAM energy (microjoules) and
	// ChannelRowHitRate its approximate row-buffer hit rate.
	ChannelEnergyUJ   []float64 `json:",omitempty"`
	ChannelRowHitRate []float64 `json:",omitempty"`
	// ORAM carries the S-App executor aggregates (nil without an S-App).
	ORAM *ORAMRaw `json:",omitempty"`
}

// ORAMRaw is the exact aggregate of the first S-App's ORAM execution.
type ORAMRaw struct {
	// Accesses counts completed ORAM accesses; Real of those carried a
	// program request and Dummy kept the access pace.
	Accesses uint64
	Real     uint64
	Dummy    uint64
	// RemoteBlocks counts blocks moved to/from the normal channels by the
	// +k tree split.
	RemoteBlocks uint64
	// ReadPhase / WritePhase are the per-phase latency aggregates.
	ReadPhase  LatencyParts
	WritePhase LatencyParts
	// SAppFinish is the S-App core's completion cycle (0 if it outlived
	// the run, which it usually does).
	SAppFinish uint64
}

// LinkFaultSummary aggregates the BOB links' unreliability counters.
type LinkFaultSummary struct {
	// Corrupted / Lost are transfer attempts rejected by the frame
	// checksum or dropped in flight; Retransmits recovered them.
	Corrupted   uint64
	Lost        uint64
	Retransmits uint64
	// GiveUps counts sends that exhausted the retransmit budget.
	GiveUps uint64
	// RetryDelayNs is the total delivery delay retransmission added.
	RetryDelayNs float64
}

// coreConfig lowers the public configuration onto the internal one,
// filling paper defaults for every zero-valued knob.
func (cfg SimConfig) coreConfig() (core.Config, error) {
	scheme, err := cfg.Scheme.internal()
	if err != nil {
		return core.Config{}, err
	}
	ic := core.DefaultConfig(scheme, cfg.Benchmark)
	ic.NumNS = cfg.NumNS
	ic.HasSApp = cfg.HasSApp
	ic.NumS = cfg.NumS
	ic.ForkPath = cfg.ForkPath
	ic.OverlapPhases = cfg.OverlapPhases
	ic.Eviction = cfg.Eviction
	ic.DDR4 = cfg.DDR4
	ic.NSChannels = cfg.NSChannels
	ic.SecureSharers = cfg.SecureSharers
	ic.SplitK = cfg.SplitK
	if cfg.TraceLen > 0 {
		ic.TraceLen = cfg.TraceLen
	}
	if cfg.Seed != 0 {
		ic.Seed = cfg.Seed
	}
	ic.TraceDir = cfg.TraceDir
	ic.LinkCorruptProb = cfg.LinkCorruptProb
	ic.LinkLossProb = cfg.LinkLossProb
	ic.NoFastForward = cfg.NoFastForward
	ic.LatencyWarmup = cfg.LatencyWarmup
	ic.SubtreeLevels = cfg.SubtreeLevels
	ic.LinkLatencyNs = cfg.LinkLatencyNs
	if cfg.Pace > 0 {
		ic.Pace = cfg.Pace
	}
	if cfg.CoopThreshold > 0 {
		ic.CoopThreshold = cfg.CoopThreshold
	}
	if cfg.MaxCycles > 0 {
		ic.MaxCycles = cfg.MaxCycles
	}
	if cfg.Metrics || cfg.MetricsEpochCycles > 0 {
		ic.MetricsEpochCycles = cfg.MetricsEpochCycles
		if ic.MetricsEpochCycles == 0 {
			ic.MetricsEpochCycles = DefaultMetricsEpochCycles
		}
	}
	if cfg.Trace || cfg.TraceEventLimit != 0 || cfg.TraceSample > 1 || cfg.TraceOramOnly || cfg.TraceTopN != 0 {
		ic.TraceEvents = true
		ic.TraceLimit = cfg.TraceEventLimit
		ic.TraceSample = cfg.TraceSample
		ic.TraceOramOnly = cfg.TraceOramOnly
		ic.TraceTopK = cfg.TraceTopN
	}
	return ic, nil
}

// Simulate builds and runs one co-run simulation.
func Simulate(cfg SimConfig) (*SimResult, error) {
	return SimulateContext(context.Background(), cfg)
}

// SimulateContext is Simulate with cooperative cancellation: when ctx is
// cancelled or its deadline passes, the run loop aborts within a few
// thousand iterations and the context's error is returned. The check is
// polled, so a nil or Background context costs the simulation nothing.
func SimulateContext(ctx context.Context, cfg SimConfig) (*SimResult, error) {
	ic, err := cfg.coreConfig()
	if err != nil {
		return nil, err
	}
	if ctx != nil && ctx.Done() != nil {
		ic.Stop = func() bool { return ctx.Err() != nil }
	}
	sys, err := core.NewSystem(ic)
	if err != nil {
		return nil, err
	}
	res, err := sys.Run()
	if err != nil {
		if errors.Is(err, core.ErrStopped) && ctx != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	return simResult(res), nil
}

// simResult summarizes a finished run, attaching its exact aggregates.
func simResult(res *core.Results) *SimResult {
	out := &SimResult{
		NSFinish:           res.NSFinish,
		AvgNSExecCycles:    res.AvgNSFinish(),
		NSReadLatencyNs:    clock.CPUToNanos(uint64(res.AvgReadLatency())),
		NSWriteLatencyNs:   clock.CPUToNanos(uint64(res.AvgWriteLatency())),
		TotalEnergyUJ:      res.TotalEnergyUJ(),
		ChannelDataBusBusy: res.ChannelDataBusBusy[:],
		Metrics:            res.Metrics,
		Timeline:           res.Timeline,
	}
	if res.Trace != nil {
		out.Trace = res.Trace
		out.LatencyBreakdown = &res.Trace.Report
	}
	if res.NSReadHist != nil {
		out.NSReadP50Ns = clock.CPUToNanos(res.NSReadHist.Percentile(50))
		out.NSReadP95Ns = clock.CPUToNanos(res.NSReadHist.Percentile(95))
		out.NSReadP99Ns = clock.CPUToNanos(res.NSReadHist.Percentile(99))
	}
	if res.SApp != nil {
		out.ORAMAccesses = res.SApp.Accesses.Value()
		out.ORAMAccessNs = clock.CPUToNanos(uint64(res.SApp.ReadPhase.Mean() + res.SApp.WritePhase.Mean()))
	}
	lf := res.TotalLinkFaults()
	out.LinkFaults = LinkFaultSummary{
		Corrupted:    lf.Corrupted,
		Lost:         lf.Lost,
		Retransmits:  lf.Retransmits,
		GiveUps:      lf.GiveUps,
		RetryDelayNs: clock.CPUToNanos(lf.RetryCycles),
	}
	out.Raw = rawFromResults(res)
	return out
}

// latencyParts extracts a latency stream's exact integer aggregate.
func latencyParts(l stats.Latency) LatencyParts {
	return LatencyParts{Count: l.Count(), Sum: l.Sum(), Min: l.Min(), Max: l.Max()}
}

// rawFromResults assembles the exact-aggregate companion of a result.
func rawFromResults(res *core.Results) *SimRaw {
	raw := &SimRaw{
		Cycles:            res.Cycles,
		NSInstrs:          res.NSInstrs,
		NSRead:            latencyParts(res.NSReadLat),
		NSWrite:           latencyParts(res.NSWriteLat),
		ChannelEnergyUJ:   res.ChannelEnergyUJ[:],
		ChannelRowHitRate: res.ChannelRowHitRate[:],
	}
	for ch := 0; ch < core.NumChannels; ch++ {
		raw.ChannelRead = append(raw.ChannelRead, latencyParts(res.ReadLatPerChannel[ch]))
		raw.ChannelWrite = append(raw.ChannelWrite, latencyParts(res.WriteLatPerChannel[ch]))
	}
	if res.SApp != nil {
		raw.ORAM = &ORAMRaw{
			Accesses:     res.SApp.Accesses.Value(),
			Real:         res.SApp.RealAccesses.Value(),
			Dummy:        res.SApp.DummyAccesses.Value(),
			RemoteBlocks: res.SApp.RemoteBlocks.Value(),
			ReadPhase:    latencyParts(res.SApp.ReadPhase),
			WritePhase:   latencyParts(res.SApp.WritePhase),
			SAppFinish:   res.SAppFinish,
		}
	}
	return raw
}

// resultsFromRaw rebuilds the internal result of running cfg from a
// SimResult's exact aggregates — the inverse of rawFromResults, used when a
// sweep's run came back from a doramd endpoint. Everything the figure
// pipelines read is recovered losslessly; the latency histogram, span trace
// and per-channel link-fault counters stay server-side (sweeps neither
// trace remotely nor inject faults).
func resultsFromRaw(cfg core.Config, r *SimResult) (*core.Results, error) {
	raw := r.Raw
	if raw == nil {
		return nil, fmt.Errorf("doram: result carries no raw aggregates (doramd too old?)")
	}
	if len(raw.ChannelRead) != core.NumChannels || len(raw.ChannelWrite) != core.NumChannels {
		return nil, fmt.Errorf("doram: result has %d/%d channel aggregates, want %d",
			len(raw.ChannelRead), len(raw.ChannelWrite), core.NumChannels)
	}
	res := &core.Results{
		Config:     cfg,
		Cycles:     raw.Cycles,
		NSFinish:   r.NSFinish,
		NSInstrs:   raw.NSInstrs,
		NSReadLat:  raw.NSRead.latency(),
		NSWriteLat: raw.NSWrite.latency(),
		Metrics:    r.Metrics,
	}
	if r.Metrics != nil {
		res.Timeline = r.Metrics.Timeline
	}
	for ch := 0; ch < core.NumChannels; ch++ {
		res.ReadLatPerChannel[ch] = raw.ChannelRead[ch].latency()
		res.WriteLatPerChannel[ch] = raw.ChannelWrite[ch].latency()
		if ch < len(r.ChannelDataBusBusy) {
			res.ChannelDataBusBusy[ch] = r.ChannelDataBusBusy[ch]
		}
		if ch < len(raw.ChannelEnergyUJ) {
			res.ChannelEnergyUJ[ch] = raw.ChannelEnergyUJ[ch]
		}
		if ch < len(raw.ChannelRowHitRate) {
			res.ChannelRowHitRate[ch] = raw.ChannelRowHitRate[ch]
		}
	}
	if o := raw.ORAM; o != nil {
		es := &delegator.ExecStats{
			ReadPhase:  o.ReadPhase.latency(),
			WritePhase: o.WritePhase.latency(),
		}
		es.Accesses.Add(o.Accesses)
		es.RealAccesses.Add(o.Real)
		es.DummyAccesses.Add(o.Dummy)
		es.RemoteBlocks.Add(o.RemoteBlocks)
		res.SApp = es
		res.SAppAll = []*delegator.ExecStats{es}
		res.SAppFinish = o.SAppFinish
	}
	return res, nil
}

// latency rebuilds the latency stream the aggregate was taken from.
func (p LatencyParts) latency() stats.Latency {
	return stats.LatencyFromParts(p.Count, p.Sum, p.Min, p.Max)
}

// Benchmarks returns the 15 Table III benchmark names.
func Benchmarks() []string { return trace.Names() }

// ValidateChromeTrace checks an exported Chrome trace-event JSON document
// for well-formedness and span-nesting invariants — the CI gate over
// WriteChrome output.
func ValidateChromeTrace(data []byte) error { return evtrace.ValidateChromeJSON(data) }
