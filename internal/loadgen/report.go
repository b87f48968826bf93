package loadgen

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"doram/internal/evtrace"
	"doram/internal/stats"
)

// Report is doramload's SLO-style output. Everything outside Serving is a
// pure function of the workload config: the request stream is planned
// deterministically, and the simulated latency attribution of a spec is
// deterministic in the spec (the differential suite pins bit-identical
// replay), so same-seed runs emit byte-identical reports no matter how the
// serving fleet raced internally. Serving holds the wall-clock half —
// throughput, wall latency, queue-depth and cache-hit series — which is
// real but machine-dependent, so it is opt-in (doramload -wall) and
// omitted from reports that CI compares byte-for-byte.
type Report struct {
	Tool         string        `json:"tool"`
	Version      int           `json:"version"`
	Workload     WorkloadInfo  `json:"workload"`
	StreamDigest string        `json:"stream_digest"`
	Requests     RequestCounts `json:"requests"`
	// SimSLO is the headline: end-to-end simulated latency percentiles
	// across the weighted request mix, attributed per pipeline stage.
	SimSLO *SimSLO `json:"sim_slo,omitempty"`
	// Serving is the nondeterministic wall-clock section; nil by default.
	Serving *ServingStats `json:"serving,omitempty"`
}

// ReportVersion is bumped whenever the report schema changes shape.
const ReportVersion = 1

// WorkloadInfo echoes the planned workload so a report is self-describing.
type WorkloadInfo struct {
	Seed            uint64       `json:"seed"`
	RateRPS         float64      `json:"rate_rps"`
	Arrivals        string       `json:"arrivals"`
	DiurnalPeriodNs int64        `json:"diurnal_period_ns,omitempty"`
	DiurnalAmp      float64      `json:"diurnal_amp,omitempty"`
	PlannedRequests int          `json:"planned_requests"`
	HorizonNs       int64        `json:"horizon_ns"` // last planned arrival offset
	Tenants         []TenantInfo `json:"tenants"`
}

// TenantInfo is one tenant's share of the plan.
type TenantInfo struct {
	Name        string  `json:"name"`
	Weight      float64 `json:"weight"`
	Keys        int     `json:"keys"`
	ZipfS       float64 `json:"zipf_s"`
	Scheme      string  `json:"scheme"`
	Benchmark   string  `json:"benchmark"`
	Requests    int     `json:"requests"`
	UniqueSpecs int     `json:"unique_specs"`
}

// RequestCounts tallies request fates.
type RequestCounts struct {
	Planned   int `json:"planned"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Rejected  int `json:"rejected"`
	Errors    int `json:"errors"`
}

// SimSLO is the simulated-latency SLO block. Unit is CPU cycles (the
// evtrace breakdown's native unit). Aggregation is exact and
// order-independent: each unique spec contributes its per-stage mean
// latency weighted by how many completed requests hit that spec, so the
// percentiles are over the request population, not the spec population.
// Stage means sum to the total mean exactly — the telescoping invariant
// the evtrace instrumentation guarantees per spec survives any weighted
// average of specs.
type SimSLO struct {
	Unit        string    `json:"unit"`
	Kind        string    `json:"kind"`
	UniqueSpecs int       `json:"unique_specs"`
	Total       SLOLine   `json:"total"`
	Stages      []SLOLine `json:"stages"`
}

// SLOLine is one row of the SLO table: the latency distribution over
// requests of one stage (or the end-to-end total). MeanShare is this
// stage's fraction of the total mean — the attribution number.
type SLOLine struct {
	Stage     string  `json:"stage"`
	Requests  uint64  `json:"requests"`
	Mean      float64 `json:"mean"`
	P50       float64 `json:"p50"`
	P99       float64 `json:"p99"`
	P999      float64 `json:"p999"`
	MeanShare float64 `json:"mean_share"`
}

// ServingStats is the wall-clock (nondeterministic) half of a report.
type ServingStats struct {
	DurationNs    int64   `json:"duration_ns"`
	ThroughputRPS float64 `json:"throughput_rps"`
	CacheHits     int     `json:"cache_hits"`
	Coalesced     int     `json:"coalesced"`
	Retries429    int     `json:"retries_429"`
	// Wall is the coordinated-omission-correct end-to-end wall latency
	// (terminal outcome minus *planned* arrival) over completed requests.
	Wall WallQuantiles `json:"wall"`
	// Samples is the queue-depth / cache-hit series polled from /varz.
	Samples []VarzSample `json:"samples,omitempty"`
}

// WallQuantiles summarizes a wall-latency distribution in nanoseconds.
type WallQuantiles struct {
	Count  uint64  `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  float64 `json:"p50_ns"`
	P99Ns  float64 `json:"p99_ns"`
	P999Ns float64 `json:"p999_ns"`
	MaxNs  float64 `json:"max_ns"`
}

// VarzSample is one poll of the serving fleet's metric registry.
type VarzSample struct {
	AtNs       int64  `json:"at_ns"`
	QueueDepth uint64 `json:"queue_depth"`
	CacheHits  uint64 `json:"cache_hits"`
	Running    uint64 `json:"running"`
}

// BuildReport folds a planned stream and its outcomes into a Report.
// serving may be nil (the deterministic default).
func BuildReport(cfg Config, reqs []Request, outcomes []Outcome, serving *ServingStats) *Report {
	r := &Report{
		Tool:         "doramload",
		Version:      ReportVersion,
		StreamDigest: Digest(reqs),
		Serving:      serving,
	}
	r.Workload = WorkloadInfo{
		Seed:            cfg.Seed,
		RateRPS:         cfg.Rate,
		Arrivals:        cfg.Arrivals,
		PlannedRequests: len(reqs),
	}
	if cfg.Arrivals == "" {
		r.Workload.Arrivals = ArrivalsPoisson
	}
	if cfg.Arrivals == ArrivalsDiurnal {
		r.Workload.DiurnalPeriodNs = int64(cfg.DiurnalPeriod)
		r.Workload.DiurnalAmp = cfg.DiurnalAmp
	}
	if len(reqs) > 0 {
		r.Workload.HorizonNs = int64(reqs[len(reqs)-1].At)
	}

	perTenant := map[string]*TenantInfo{}
	tenantSpecs := map[string]map[string]bool{}
	for _, t := range cfg.Tenants {
		perTenant[t.Name] = &TenantInfo{
			Name: t.Name, Weight: t.Weight, Keys: t.Keys, ZipfS: t.ZipfS,
			Scheme: string(t.Base.Scheme), Benchmark: t.Base.Benchmark,
		}
		tenantSpecs[t.Name] = map[string]bool{}
	}
	for _, req := range reqs {
		if ti := perTenant[req.Tenant]; ti != nil {
			ti.Requests++
			tenantSpecs[req.Tenant][req.Hash] = true
		}
	}
	for _, t := range cfg.Tenants {
		ti := perTenant[t.Name]
		ti.UniqueSpecs = len(tenantSpecs[t.Name])
		r.Workload.Tenants = append(r.Workload.Tenants, *ti)
	}

	r.Requests.Planned = len(reqs)
	for _, o := range outcomes {
		switch o.State {
		case OutcomeDone:
			r.Requests.Completed++
		case OutcomeFailed:
			r.Requests.Failed++
		case OutcomeRejected:
			r.Requests.Rejected++
		default:
			r.Requests.Errors++
		}
	}

	r.SimSLO = aggregateSimSLO(outcomes)
	return r
}

// specLoad is one unique spec's contribution: its deterministic breakdown
// and how many completed requests hit it.
type specLoad struct {
	hash      string
	weight    uint64
	breakdown *evtrace.Report
}

// aggregateSimSLO builds the simulated SLO block from completed outcomes,
// or nil when none carried a breakdown. Outcomes are grouped by spec hash
// (identical specs have identical simulated results) and processed in
// sorted-hash order, making the aggregation independent of completion
// order — a requirement for byte-identical same-seed reports.
func aggregateSimSLO(outcomes []Outcome) *SimSLO {
	bySpec := map[string]*specLoad{}
	for _, o := range outcomes {
		if o.State != OutcomeDone {
			continue
		}
		sl := bySpec[o.Req.Hash]
		if sl == nil {
			sl = &specLoad{hash: o.Req.Hash}
			bySpec[o.Req.Hash] = sl
		}
		sl.weight++
		if sl.breakdown == nil {
			sl.breakdown = o.Breakdown
		}
	}
	specs := make([]*specLoad, 0, len(bySpec))
	for _, sl := range bySpec {
		if sl.breakdown != nil && len(sl.breakdown.Kinds) > 0 {
			specs = append(specs, sl)
		}
	}
	if len(specs) == 0 {
		return nil
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].hash < specs[j].hash })

	// Attribute the kind every spec reports; ORAM accesses when present
	// (the serving path this benchmark exists to measure), else the first
	// kind of the first spec (non-secure schemes have no ORAM stage).
	kind := specs[0].breakdown.Kinds[0].Kind
	for _, sl := range specs {
		for _, kb := range sl.breakdown.Kinds {
			if kb.Kind == evtrace.KindOram {
				kind = evtrace.KindOram
			}
		}
	}

	slo := &SimSLO{Unit: "cpu_cycles", Kind: kind}
	totals := weighted{}
	stageVals := map[string]*weighted{}
	var stageOrder []string
	for _, sl := range specs {
		var kb *evtrace.KindBreakdown
		for i := range sl.breakdown.Kinds {
			if sl.breakdown.Kinds[i].Kind == kind {
				kb = &sl.breakdown.Kinds[i]
				break
			}
		}
		if kb == nil {
			continue
		}
		slo.UniqueSpecs++
		totals.add(kb.Total.Mean, sl.weight)
		seen := map[string]bool{}
		for _, st := range kb.Stages {
			w := stageVals[st.Stage]
			if w == nil {
				w = &weighted{}
				stageVals[st.Stage] = w
				stageOrder = append(stageOrder, st.Stage)
			}
			w.add(st.Mean, sl.weight)
			seen[st.Stage] = true
		}
		// A stage absent from this spec contributes zero latency for its
		// requests — without the zero entries the stage's mean would be
		// over its own requests only and the attribution sum would drift
		// off the total.
		for name, w := range stageVals {
			if !seen[name] {
				w.add(0, sl.weight)
			}
		}
	}
	if totals.total == 0 {
		return nil
	}
	// Stages discovered late are missing zero-entries for earlier specs.
	for _, w := range stageVals {
		if w.total < totals.total {
			w.add(0, totals.total-w.total)
		}
	}
	slo.Total = totals.line("total", 1)
	totalMean := slo.Total.Mean
	for _, name := range stageOrder {
		w := stageVals[name]
		share := 0.0
		if totalMean > 0 {
			share = w.mean() / totalMean
		}
		slo.Stages = append(slo.Stages, w.line(name, share))
	}
	return slo
}

// weighted accumulates (value, weight) pairs for exact weighted
// percentiles — O(unique specs) memory regardless of request count.
type weighted struct {
	vals  []stats.Sample
	sum   float64 // Σ value·weight
	total uint64  // Σ weight
}

func (w *weighted) add(v float64, weight uint64) {
	w.vals = append(w.vals, stats.Sample{Value: v, Weight: weight})
	w.sum += v * float64(weight)
	w.total += weight
}

func (w *weighted) mean() float64 {
	if w.total == 0 {
		return 0
	}
	return w.sum / float64(w.total)
}

func (w *weighted) line(stage string, share float64) SLOLine {
	return SLOLine{
		Stage:     stage,
		Requests:  w.total,
		Mean:      w.mean(),
		P50:       stats.Quantile(w.vals, 50),
		P99:       stats.Quantile(w.vals, 99),
		P999:      stats.Quantile(w.vals, 99.9),
		MeanShare: share,
	}
}

// MarshalCanonical renders the report in its canonical byte form: indented
// JSON with the struct-declared field order and Go's shortest-round-trip
// float formatting, terminated by a newline. Same-seed runs produce
// byte-identical canonical reports (Serving excluded); the CI load-smoke
// job compares them with cmp.
func (r *Report) MarshalCanonical() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("loadgen: report marshal: %w", err)
	}
	return append(data, '\n'), nil
}

// BuildServing folds outcomes and varz samples into the wall-clock
// section. Quantiles are exact over the completed outcomes.
func BuildServing(outcomes []Outcome, samples []VarzSample, duration time.Duration) *ServingStats {
	s := &ServingStats{DurationNs: int64(duration), Samples: samples}
	var lat []stats.Sample
	var maxNs, sumNs float64
	for _, o := range outcomes {
		switch o.State {
		case OutcomeDone:
			ns := float64(o.WallLatency())
			lat = append(lat, stats.Sample{Value: ns, Weight: 1})
			sumNs += ns
			if ns > maxNs {
				maxNs = ns
			}
		}
		if o.CacheHit {
			s.CacheHits++
		}
		if o.Coalesced {
			s.Coalesced++
		}
		s.Retries429 += o.Retries429
	}
	s.Wall.Count = uint64(len(lat))
	if len(lat) > 0 {
		s.Wall.MeanNs = sumNs / float64(len(lat))
		s.Wall.P50Ns = stats.Quantile(lat, 50)
		s.Wall.P99Ns = stats.Quantile(lat, 99)
		s.Wall.P999Ns = stats.Quantile(lat, 99.9)
		s.Wall.MaxNs = maxNs
	}
	if duration > 0 {
		s.ThroughputRPS = float64(len(lat)) / duration.Seconds()
	}
	return s
}
