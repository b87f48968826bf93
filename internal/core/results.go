package core

import (
	"doram/internal/clock"
	"doram/internal/delegator"
	"doram/internal/evtrace"
	"doram/internal/metrics"
	"doram/internal/stats"
)

// Results aggregates one run's measurements. All times are CPU cycles.
type Results struct {
	Config Config

	// Cycles is the cycle at which the last measured core retired its
	// final instruction.
	Cycles uint64

	// NSFinish holds each NS core's completion cycle (its execution time,
	// since all cores start at cycle 0).
	NSFinish []uint64
	// NSInstrs holds each NS core's retired instruction count.
	NSInstrs []uint64

	// ReadLatPerChannel / WriteLatPerChannel aggregate NS-App memory
	// latencies per channel (issue to completion, including links).
	ReadLatPerChannel  [NumChannels]stats.Latency
	WriteLatPerChannel [NumChannels]stats.Latency

	// NSReadLat / NSWriteLat aggregate over all NS-Apps and channels.
	NSReadLat  stats.Latency
	NSWriteLat stats.Latency

	// NSReadHist is the NS read latency distribution (CPU-cycle bounds),
	// for tail reporting (p95/p99) beyond Figure 13's means.
	NSReadHist *stats.Histogram

	// SApp carries the first ORAM executor's statistics when an S-App ran
	// under PathORAMBaseline or DORAM; SAppAll holds every copy's when the
	// run hosts multiple S-Apps (§III-C).
	SApp    *delegator.ExecStats
	SAppAll []*delegator.ExecStats
	// SAppFinish is the S-App core's completion cycle (0 if it did not
	// finish within the run; it usually outlives the NS-Apps).
	SAppFinish uint64

	// ChannelDataBusBusy is each channel's aggregate data-bus busy cycles
	// (summed over sub-channels), for utilization reporting.
	ChannelDataBusBusy [NumChannels]uint64

	// ChannelEnergyUJ is each channel's DRAM energy (microjoules, summed
	// over sub-channels) under the USIMM-style power model.
	ChannelEnergyUJ [NumChannels]float64

	// ChannelRowHitRate approximates each channel's row-buffer hit rate:
	// column issues over column issues plus conflict precharges.
	ChannelRowHitRate [NumChannels]float64

	// LinkFaults holds each BOB link's fault-recovery counters (both
	// directions summed; DORAM scheme only, all zero on reliable links).
	LinkFaults [NumChannels]LinkFaultStats

	// Timeline is the epoch-sampled observability record and Metrics the
	// final registry dump; both are nil unless Config.MetricsEpochCycles
	// was set. Timeline and Metrics.Timeline are the same object.
	Timeline *metrics.Timeline
	Metrics  *metrics.Dump

	// Trace is the per-access event trace and latency-attribution report;
	// nil unless Config.TraceEvents was set.
	Trace *evtrace.Trace
}

// LinkFaultStats summarizes one serial link's unreliability and the cost
// of recovering from it.
type LinkFaultStats struct {
	// Corrupted / Lost count transfer attempts discarded by the receiver's
	// frame checksum or dropped in flight.
	Corrupted uint64
	Lost      uint64
	// Retransmits counts the extra transfer attempts issued to recover.
	Retransmits uint64
	// GiveUps counts sends that exhausted the retransmit budget.
	GiveUps uint64
	// RetryCycles is the total delivery delay (CPU cycles) retransmission
	// added on top of fault-free timing.
	RetryCycles uint64
}

// TotalLinkFaults sums the per-channel link fault stats.
func (r *Results) TotalLinkFaults() LinkFaultStats {
	var t LinkFaultStats
	for _, l := range r.LinkFaults {
		t.Corrupted += l.Corrupted
		t.Lost += l.Lost
		t.Retransmits += l.Retransmits
		t.GiveUps += l.GiveUps
		t.RetryCycles += l.RetryCycles
	}
	return t
}

// AvgNSIPC returns the mean NS instructions per cycle.
func (r *Results) AvgNSIPC() float64 {
	if len(r.NSFinish) == 0 {
		return 0
	}
	var sum float64
	n := 0
	for i, f := range r.NSFinish {
		if f > 0 && i < len(r.NSInstrs) {
			sum += float64(r.NSInstrs[i]) / float64(f)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TotalEnergyUJ returns the memory system's total DRAM energy.
func (r *Results) TotalEnergyUJ() float64 {
	var s float64
	for _, e := range r.ChannelEnergyUJ {
		s += e
	}
	return s
}

// AvgNSFinish returns the arithmetic mean NS execution time.
func (r *Results) AvgNSFinish() float64 {
	if len(r.NSFinish) == 0 {
		return 0
	}
	var s float64
	for _, f := range r.NSFinish {
		s += float64(f)
	}
	return s / float64(len(r.NSFinish))
}

// ORAMAccessNs returns the S-App's mean ORAM access time (read plus write
// phase) in nanoseconds, or 0 when no S-App ran.
func (r *Results) ORAMAccessNs() float64 {
	if r.SApp == nil {
		return 0
	}
	return clock.CPUToNanos(uint64(r.SApp.ReadPhase.Mean() + r.SApp.WritePhase.Mean()))
}

// AvgReadLatency returns the mean NS read latency in CPU cycles.
func (r *Results) AvgReadLatency() float64 { return r.NSReadLat.Mean() }

// AvgWriteLatency returns the mean NS write (drain) latency in CPU cycles.
func (r *Results) AvgWriteLatency() float64 { return r.NSWriteLat.Mean() }

// Slowdown returns this run's average NS execution time normalized to a
// reference run (e.g. the solo execution), the metric of Figures 4 and 9.
func (r *Results) Slowdown(ref *Results) float64 {
	if ref == nil || ref.AvgNSFinish() == 0 {
		return 0
	}
	return r.AvgNSFinish() / ref.AvgNSFinish()
}

// LatencySlowdown returns the average-read-latency ratio against a
// reference run — the T25/T33/T25mix quantities of §III-D.
func (r *Results) LatencySlowdown(ref *Results) float64 {
	if ref == nil || ref.AvgReadLatency() == 0 {
		return 0
	}
	return r.AvgReadLatency() / ref.AvgReadLatency()
}
