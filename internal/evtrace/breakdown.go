package evtrace

import (
	"fmt"

	"doram/internal/stats"
)

// Stage is one named slice of an access's end-to-end latency.
type Stage struct {
	Name string
	Dur  uint64
}

// breakdownBounds are power-of-two bucket bounds in CPU cycles, spanning
// one cycle to ~134M (≈42 ms at 3.2 GHz) before the overflow bucket.
var breakdownBounds = stats.PowerOfTwoBounds(28)

// kindStats accumulates per-stage and end-to-end histograms for one
// request kind ("oram", "ns_read", ...).
type kindStats struct {
	total  *stats.Histogram
	stages map[string]*stats.Histogram
	order  []string
}

// RecordStages folds one completed access into the attribution report for
// kind. start/total define the end-to-end interval; stages must partition
// it — a stage sum differing from total is an invariant violation (the
// instrumentation points are designed to telescope exactly). Recording is
// unconditional: sampling (id == 0) bounds the event ring only, never the
// breakdown, so the report covers the full population. For kind "oram" the
// access also competes for the slowest-accesses report. Safe on nil.
func (t *Tracer) RecordStages(kind string, id, start, total uint64, stages ...Stage) {
	if t == nil {
		return
	}
	ks := t.kinds[kind]
	if ks == nil {
		ks = &kindStats{
			total:  stats.NewHistogram(breakdownBounds),
			stages: make(map[string]*stats.Histogram),
		}
		t.kinds[kind] = ks
		t.order = append(t.order, kind)
	}
	ks.total.Observe(total)
	var sum uint64
	for _, st := range stages {
		h := ks.stages[st.Name]
		if h == nil {
			h = stats.NewHistogram(breakdownBounds)
			ks.stages[st.Name] = h
			ks.order = append(ks.order, st.Name)
		}
		h.Observe(st.Dur)
		sum += st.Dur
	}
	if sum != total {
		t.violations++
	}
	if kind == KindOram {
		t.recordTop(id, start, total, stages)
	}
}

// KindOram is the breakdown kind for delegated/on-chip ORAM accesses;
// NS-App requests use KindNSRead / KindNSWrite.
const (
	KindOram    = "oram"
	KindNSRead  = "ns_read"
	KindNSWrite = "ns_write"
)

// TopAccess is one entry of the slowest-ORAM-accesses report.
type TopAccess struct {
	ID     uint64  `json:"id"` // span ID, 0 if the access was sampled out
	Start  uint64  `json:"start"`
	Total  uint64  `json:"total"`
	Stages []Stage `json:"stages"`
}

// recordTop keeps the cfg.TopK slowest accesses, ascending by Total so the
// cheapest survivor is always at index 0; among equal totals the earlier
// access comes first, and is evicted first. Once the report is full, a
// newcomer takes over the evicted entry's stage array, so a warm tracer
// records without allocating. (Finish's Trace shares those arrays: the
// tracer must record nothing after Finish.)
func (t *Tracer) recordTop(id, start, total uint64, stages []Stage) {
	if len(t.top) < t.cfg.TopK {
		if t.top == nil {
			t.top = make([]TopAccess, 0, t.cfg.TopK)
		}
		entry := TopAccess{ID: id, Start: start, Total: total, Stages: make([]Stage, len(stages))}
		copy(entry.Stages, stages)
		i := len(t.top)
		t.top = append(t.top, entry)
		for i > 0 && t.top[i-1].Total > total {
			t.top[i] = t.top[i-1]
			i--
		}
		t.top[i] = entry
		return
	}
	if total <= t.top[0].Total {
		return
	}
	entry := TopAccess{ID: id, Start: start, Total: total, Stages: append(t.top[0].Stages[:0], stages...)}
	// Evict index 0: entries no slower than the newcomer shift down.
	i := 0
	for i+1 < len(t.top) && t.top[i+1].Total <= total {
		t.top[i] = t.top[i+1]
		i++
	}
	t.top[i] = entry
}

// StageSummary is the report row for one stage (or the end-to-end total).
type StageSummary struct {
	Stage string  `json:"stage"`
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P95   uint64  `json:"p95"`
	P99   uint64  `json:"p99"`
}

// KindBreakdown is the attribution for one request kind. Stage means sum to
// Total.Mean exactly (the stage partitions telescope); percentiles do not
// sum — they are per-stage marginals.
type KindBreakdown struct {
	Kind   string         `json:"kind"`
	Total  StageSummary   `json:"total"`
	Stages []StageSummary `json:"stages"`
}

// Report is the latency-attribution half of a finished trace.
type Report struct {
	Kinds []KindBreakdown `json:"kinds,omitempty"`
}

func summarize(name string, h *stats.Histogram) StageSummary {
	s := h.Summary()
	return StageSummary{Stage: name, Count: s.Count, Mean: s.Mean, P50: s.P50, P95: s.P95, P99: s.P99}
}

func (t *Tracer) report() Report {
	var r Report
	for _, kind := range t.order {
		ks := t.kinds[kind]
		kb := KindBreakdown{Kind: kind, Total: summarize("total", ks.total)}
		for _, st := range ks.order {
			if h, ok := ks.stages[st]; ok {
				kb.Stages = append(kb.Stages, summarize(st, h))
			}
		}
		r.Kinds = append(r.Kinds, kb)
	}
	return r
}

// stageHists hands the accumulated per-stage histograms to the finished
// trace. The tracer is done once Finish runs, so the histograms transfer
// by reference rather than copy.
func (t *Tracer) stageHists() map[string]*stats.Histogram {
	if len(t.kinds) == 0 {
		return nil
	}
	out := make(map[string]*stats.Histogram)
	for kind, ks := range t.kinds {
		out[kind+"/total"] = ks.total
		for stage, h := range ks.stages {
			out[kind+"/"+stage] = h
		}
	}
	return out
}

func errorf(format string, args ...any) error { return fmt.Errorf("evtrace: "+format, args...) }
