package loadgen

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"doram"
	"doram/internal/evtrace"
	"doram/internal/stats"
	"doram/internal/xrand"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// syntheticBreakdown derives a deterministic per-stage attribution from a
// spec hash, with stage means that telescope exactly to the total — the
// same invariant the real evtrace instrumentation guarantees.
func syntheticBreakdown(hash string) *evtrace.Report {
	v := float64(xrand.HashString(hash) % 4096)
	total := 1000 + v
	return &evtrace.Report{Kinds: []evtrace.KindBreakdown{{
		Kind:  evtrace.KindOram,
		Total: evtrace.StageSummary{Stage: "total", Count: 100, Mean: total, P50: uint64(total), P95: uint64(total) * 2, P99: uint64(total) * 3},
		Stages: []evtrace.StageSummary{
			{Stage: "queue", Count: 100, Mean: 150},
			{Stage: "path_read", Count: 100, Mean: total - 400},
			{Stage: "path_write", Count: 100, Mean: 250},
		},
	}}}
}

// syntheticOutcomes completes every planned request with a breakdown
// derived from its spec.
func syntheticOutcomes(reqs []Request) []Outcome {
	outs := make([]Outcome, len(reqs))
	for i, r := range reqs {
		outs[i] = Outcome{
			Req:         r,
			ScheduledAt: r.At,
			SentAt:      r.At,
			DoneAt:      r.At + 5*time.Millisecond,
			State:       OutcomeDone,
			Breakdown:   syntheticBreakdown(r.Hash),
		}
	}
	return outs
}

func goldenConfig() Config {
	return Config{
		Seed:        11,
		Rate:        1000,
		Arrivals:    ArrivalsPoisson,
		MaxRequests: 60,
		Tenants:     DefaultTenants(2, 12, 1.1, doram.SchemeDORAM, 600),
	}
}

// TestReportGolden pins the SLO report's canonical byte form: field order,
// float formatting, indentation. Any schema drift shows up as a golden
// diff (refresh with -update-golden).
func TestReportGolden(t *testing.T) {
	cfg := goldenConfig()
	reqs, err := Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := BuildReport(cfg, reqs, syntheticOutcomes(reqs), nil)
	got, err := rep.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatalf("writing golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestReportAttributionInvariant: per-stage attribution stays pinned to
// the end-to-end latency — stage means sum to the total mean and the mean
// shares to 1 — and the aggregation is independent of outcome completion
// order, which is exactly what concurrent load permutes.
func TestReportAttributionInvariant(t *testing.T) {
	cfg := goldenConfig()
	cfg.MaxRequests = 500
	reqs, err := Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	outs := syntheticOutcomes(reqs)
	rep := BuildReport(cfg, reqs, outs, nil)
	if rep.SimSLO == nil {
		t.Fatal("no SimSLO block")
	}
	checkAttribution(t, rep.SimSLO)
	base, err := rep.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}

	// Concurrency reorders completions; the report must not care. Three
	// deterministic shuffles stand in for arbitrary interleavings.
	for trial := uint64(0); trial < 3; trial++ {
		shuffled := make([]Outcome, len(outs))
		copy(shuffled, outs)
		rng := xrand.New(100 + trial)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		got, err := BuildReport(cfg, reqs, shuffled, nil).MarshalCanonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, base) {
			t.Fatalf("trial %d: report depends on outcome order", trial)
		}
	}
}

// checkAttribution asserts the telescoping invariant on an SLO block.
func checkAttribution(t *testing.T, slo *SimSLO) {
	t.Helper()
	var stageSum, shareSum float64
	for _, st := range slo.Stages {
		stageSum += st.Mean
		shareSum += st.MeanShare
		if st.Requests != slo.Total.Requests {
			t.Errorf("stage %s covers %d requests, total covers %d", st.Stage, st.Requests, slo.Total.Requests)
		}
	}
	if tol := 1e-9 * slo.Total.Mean; math.Abs(stageSum-slo.Total.Mean) > tol {
		t.Errorf("stage means sum to %v, total mean is %v", stageSum, slo.Total.Mean)
	}
	if math.Abs(shareSum-1) > 1e-9 {
		t.Errorf("mean shares sum to %v, want 1", shareSum)
	}
}

// TestWeightedQuantile: the exact weighted nearest-rank rule.
func TestWeightedQuantile(t *testing.T) {
	var w weighted
	w.add(100, 98) // 98 requests at 100 cycles
	w.add(500, 1)  // 1 at 500
	w.add(900, 1)  // 1 at 900
	cases := []struct {
		p    float64
		want float64
	}{
		{50, 100}, {98, 100}, {99, 500}, {99.9, 900}, {100, 900}, {0, 100},
	}
	for _, c := range cases {
		if got := stats.Quantile(w.vals, c.p); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got, want := w.mean(), (100*98+500+900)/100.0; got != want {
		t.Errorf("mean = %v, want %v", got, want)
	}
}

// TestReportCounts: outcome states land in the right tally.
func TestReportCounts(t *testing.T) {
	cfg := goldenConfig()
	cfg.MaxRequests = 4
	reqs, err := Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	outs := syntheticOutcomes(reqs)
	outs[1].State, outs[1].Breakdown = OutcomeFailed, nil
	outs[2].State, outs[2].Breakdown = OutcomeRejected, nil
	outs[3].State, outs[3].Breakdown = OutcomeError, nil
	rep := BuildReport(cfg, reqs, outs, nil)
	rc := rep.Requests
	if rc.Planned != 4 || rc.Completed != 1 || rc.Failed != 1 || rc.Rejected != 1 || rc.Errors != 1 {
		t.Fatalf("counts = %+v", rc)
	}
	if rep.SimSLO == nil || rep.SimSLO.Total.Requests != 1 {
		t.Fatalf("SimSLO should cover the one completed request: %+v", rep.SimSLO)
	}
}

// TestBuildServing: wall-clock section folds outcomes correctly.
func TestBuildServing(t *testing.T) {
	outs := []Outcome{
		{State: OutcomeDone, ScheduledAt: 0, DoneAt: 10 * time.Millisecond, CacheHit: true},
		{State: OutcomeDone, ScheduledAt: 5 * time.Millisecond, DoneAt: 45 * time.Millisecond, Coalesced: true},
		{State: OutcomeRejected, Retries429: 3},
	}
	s := BuildServing(outs, nil, time.Second)
	if s.Wall.Count != 2 {
		t.Fatalf("wall count = %d, want 2", s.Wall.Count)
	}
	if s.Wall.P50Ns != float64(10*time.Millisecond) || s.Wall.MaxNs != float64(40*time.Millisecond) {
		t.Fatalf("wall quantiles wrong: %+v", s.Wall)
	}
	if s.CacheHits != 1 || s.Coalesced != 1 || s.Retries429 != 3 {
		t.Fatalf("serving tallies wrong: %+v", s)
	}
	if s.ThroughputRPS != 2 {
		t.Fatalf("throughput = %v, want 2", s.ThroughputRPS)
	}
}
