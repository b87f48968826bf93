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
// benchmark names and MPKIs come from Table III): a job spec plus the
// three knobs no spec can carry. Every spec field keeps its Params
// meaning, so a zero field takes the paper's default — nil NumNS, HasSApp
// and C mean 7 NS-Apps, an S-App under every scheme but SchemeNonSecure,
// and no /c limit. SimConfig{Params: Params{Scheme: s, Benchmark: b}} is
// the paper's 1S7NS co-run.
//
// Params' methods are promoted: MarshalJSON encodes the job spec alone
// (the local knobs below never travel), and SimConfig returns the spec's
// configuration with the local knobs cleared.
type SimConfig struct {
	Params

	// TraceDir loads recorded traces (cmd/tracegen -o) instead of
	// synthesizing: "<Benchmark>.<core>.dtrc" per core, else a shared
	// "<Benchmark>.dtrc" rotated per core. A server-side file path, so a
	// job spec cannot name it.
	TraceDir string

	// TraceEventLimit sizes the span-event ring that Trace.WriteChrome
	// exports (oldest events evicted first). 0 keeps no ring: the run
	// still returns LatencyBreakdown, Trace.Top and the stage histograms,
	// but Trace.Events stays empty. Set it only to export the trace;
	// doramsim -trace-json uses 200000. Implies Trace. A result does not
	// transport span events, so a job spec cannot ask for them.
	TraceEventLimit int

	// NoFastForward disables the idle-cycle fast-forward scheduler and
	// visits every CPU cycle like the original loop. Fast-forward (the
	// default) is bit-identical in results, metrics and traces — the
	// differential test suite enforces it — so this is an escape hatch and
	// the reference side of that comparison, not a fidelity trade-off; a
	// job spec therefore cannot name it.
	NoFastForward bool
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

// DefaultSimConfig returns the paper's 1S7NS co-run for the scheme: a spec
// naming only the scheme and benchmark, every other field at its default.
func DefaultSimConfig(scheme Scheme, benchmark string) SimConfig {
	return SimConfig{Params: Params{Scheme: scheme, Benchmark: benchmark}}
}

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

// coreConfig lowers the configuration onto the internal one: the spec's
// canonical form, copied field by field, plus the local knobs. It is the
// only place a spec field reaches core.Config; paramsFromCore is its
// inverse.
func (cfg SimConfig) coreConfig() (core.Config, error) {
	p := cfg.Params.Canonical()
	scheme, err := p.Scheme.internal()
	if err != nil {
		return core.Config{}, err
	}
	ic := core.Config{
		Scheme:             scheme,
		Benchmark:          p.Benchmark,
		NumNS:              *p.NumNS,
		HasSApp:            *p.HasSApp,
		NumS:               p.NumS,
		SplitK:             p.SplitK,
		SecureSharers:      *p.C,
		NSChannels:         p.NSChannels,
		TraceLen:           p.TraceLen,
		Seed:               p.Seed,
		LatencyWarmup:      p.LatencyWarmup,
		Pace:               p.Pace,
		CoopThreshold:      p.CoopThreshold,
		SubtreeLevels:      p.SubtreeLevels,
		LinkLatencyNs:      p.LinkLatencyNs,
		MaxCycles:          p.MaxCycles,
		ForkPath:           p.ForkPath,
		OverlapPhases:      p.OverlapPhases,
		DDR4:               p.DDR4,
		Eviction:           p.Eviction,
		LinkCorruptProb:    p.LinkCorruptProb,
		LinkLossProb:       p.LinkLossProb,
		MetricsEpochCycles: p.MetricsEpochCycles,
		TraceEvents:        p.Trace || cfg.TraceEventLimit != 0,
		TraceSample:        p.TraceSample,
		TraceOramOnly:      p.TraceOramOnly,
		TraceTopK:          p.TraceTopN,

		TraceDir:      cfg.TraceDir,
		TraceLimit:    cfg.TraceEventLimit,
		NoFastForward: cfg.NoFastForward,
	}
	if ic.MaxCycles == 0 { // Canonical folds the default to omitted
		ic.MaxCycles = paperDefaults.MaxCycles
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
