package simsvc

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"doram"
	"doram/internal/evtrace"
)

// TestCacheSnapshotRoundTrip is the restart end to end: complete a job,
// save the cache, build a fresh service from the snapshot, and resubmit
// the identical spec — it must be a cache hit serving byte-identical
// result JSON without simulating.
func TestCacheSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	traced := func(ctx context.Context, cfg doram.SimConfig) (*doram.SimResult, error) {
		return breakdownResult(cfg), nil
	}
	a := New(Config{Workers: 1, RunSim: traced})
	job, err := a.Submit(specWithSeed(7))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, a, job.ID(), StateDone)
	want, err := a.ResultJSON(job.ID())
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if err := a.SaveCache(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	closeService(t, a)

	b := New(Config{Workers: 1, RunSim: func(context.Context, doram.SimConfig) (*doram.SimResult, error) {
		t.Error("a snapshot hit simulated")
		return nil, context.Canceled
	}})
	defer closeService(t, b)
	if n, err := b.LoadCache(path); n != 1 || err != nil {
		t.Fatalf("load: n=%d err=%v, want 1, nil", n, err)
	}
	again, err := b.Submit(specWithSeed(7))
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	st := again.Status()
	if st.State != StateDone || !st.CacheHit || st.Node != "cache" {
		t.Fatalf("resubmission after restart: state %s cache_hit %v node %q, want a done cache hit",
			st.State, st.CacheHit, st.Node)
	}
	got, err := b.ResultJSON(again.ID())
	if err != nil {
		t.Fatalf("result after restart: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("result changed across the snapshot:\n%s\nvs\n%s", got, want)
	}
}

// TestCacheSnapshotFormat pins the persistence contract: missing files
// load cleanly as empty, corrupt documents and wrong versions are
// rejected, and garbage keys are skipped rather than installed.
func TestCacheSnapshotFormat(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1})
	defer closeService(t, s)

	if n, err := s.LoadCache(filepath.Join(dir, "absent.json")); n != 0 || err != nil {
		t.Errorf("missing file: n=%d err=%v, want 0, nil", n, err)
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{not json"), 0o644)
	if _, err := s.LoadCache(bad); err == nil {
		t.Error("corrupt snapshot loaded without error")
	}
	os.WriteFile(bad, []byte(`{"version":99,"results":{}}`), 0o644)
	if _, err := s.LoadCache(bad); err == nil {
		t.Error("future snapshot version loaded without error")
	}
	// Keys that are not spec hashes are skipped: too short, the right
	// length but not hex, and upper-case hex (Params.Hash writes lower).
	for _, key := range []string{"deadbeef", strings.Repeat("g", 64), strings.Repeat("AB", 32)} {
		garbage := filepath.Join(dir, "garbage.json")
		os.WriteFile(garbage, []byte(`{"version":1,"results":{"`+key+`":"{\"AvgNSExecCycles\":1}"}}`), 0o644)
		if n, err := s.LoadCache(garbage); n != 0 || err != nil {
			t.Errorf("garbage key %q: n=%d err=%v, want 0 loaded, nil", key, n, err)
		}
	}
	if got := counter(t, s, "simsvc.cache.entries"); got != 0 {
		t.Errorf("garbage key installed: %d cache entries", got)
	}
}

// breakdownResult stands in for a delegated traced run: a result as
// decoded from a worker's JSON, with the attribution report but no
// per-access trace.
func breakdownResult(cfg doram.SimConfig) *doram.SimResult {
	return &doram.SimResult{
		AvgNSExecCycles: float64(cfg.Seed),
		LatencyBreakdown: &doram.TraceReport{Kinds: []evtrace.KindBreakdown{{
			Kind:  "oram",
			Total: evtrace.StageSummary{Stage: "total", Count: 10, Mean: 1234},
			Stages: []evtrace.StageSummary{
				{Stage: "read_phase", Count: 10, Mean: 700},
				{Stage: "write_phase", Count: 10, Mean: 534},
			},
		}}},
	}
}

// TestPlacementReported: a RunSim that delegates reports where the job
// went through Place; the status carries it, a coalesced follower shows
// its leader's placement, and a later cache hit reports Node "cache".
func TestPlacementReported(t *testing.T) {
	placed := make(chan struct{})
	release := make(chan struct{})
	s := New(Config{Workers: 1, RunSim: func(ctx context.Context, cfg doram.SimConfig) (*doram.SimResult, error) {
		Place(ctx, Placement{Node: "http://w1", RemoteID: "j-00000042", Attempts: 1})
		close(placed)
		<-release
		return &doram.SimResult{AvgNSExecCycles: 1}, nil
	}})
	defer closeService(t, s)
	Place(context.Background(), Placement{Node: "nowhere"}) // outside a run: a no-op

	leader, err := s.Submit(specWithSeed(1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-placed
	follower, err := s.Submit(specWithSeed(1))
	if err != nil {
		t.Fatalf("duplicate submit: %v", err)
	}
	want := Placement{Node: "http://w1", RemoteID: "j-00000042", Attempts: 1}
	for _, j := range []*Job{leader, follower} {
		if got := j.Status().Placement; got != want {
			t.Errorf("job %s placement %+v, want %+v", j.ID(), got, want)
		}
	}
	close(release)
	waitState(t, s, follower.ID(), StateDone)

	hit, err := s.Submit(specWithSeed(1))
	if err != nil {
		t.Fatalf("cached submit: %v", err)
	}
	if got := hit.Status().Node; got != "cache" {
		t.Errorf("cache hit node %q, want \"cache\"", got)
	}
}

// TestDelegatedStageMeans: a result without a per-access trace but with
// an attribution report (a delegated run) folds its per-stage means into
// the exported stage histograms.
func TestDelegatedStageMeans(t *testing.T) {
	s := New(Config{Workers: 1, RunSim: func(ctx context.Context, cfg doram.SimConfig) (*doram.SimResult, error) {
		return breakdownResult(cfg), nil
	}})
	defer closeService(t, s)
	job, err := s.Submit(specWithSeed(3))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, s, job.ID(), StateDone)
	d := s.dump()
	for _, name := range []string{
		"simsvc.stage.oram.total.mean_cycles",
		"simsvc.stage.oram.read_phase.mean_cycles",
		"simsvc.stage.oram.write_phase.mean_cycles",
	} {
		if h, ok := d.Histograms[name]; !ok || h.Count != 1 {
			t.Errorf("histogram %s = %+v, want one sample", name, h)
		}
	}
}

// TestTracedJobKeepsNoEvents: a served traced job records attribution but
// no span events — nobody can fetch them — and still serves the bytes an
// in-process run with an event ring produces, with its stage histograms
// folded into the Prometheus exposition.
func TestTracedJobKeepsNoEvents(t *testing.T) {
	s := New(Config{Workers: 1})
	defer closeService(t, s)
	spec := doram.Params{Scheme: doram.SchemeDORAM, Benchmark: "face", TraceLen: 600, Seed: 5,
		Trace: true, TraceOramOnly: true}
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, s, job.ID(), StateDone)
	res, err := s.Result(job.ID())
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.LatencyBreakdown == nil {
		t.Fatal("traced job returned no trace or attribution")
	}
	if res.Trace.Events != nil || res.Trace.Dropped != 0 {
		t.Fatalf("served job kept %d span events (%d dropped)", len(res.Trace.Events), res.Trace.Dropped)
	}

	cfg := spec.SimConfig()
	cfg.TraceEventLimit = evtrace.DefaultLimit
	local, err := doram.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(local.Trace.Events) == 0 {
		t.Fatal("in-process run with a ring kept no events")
	}
	want, err := encodeJSON(local)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.ResultJSON(job.ID())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("served result JSON differs from an in-process run with an event ring")
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var oramCount uint64
	for _, k := range res.LatencyBreakdown.Kinds {
		if k.Kind == evtrace.KindOram {
			oramCount = k.Total.Count
		}
	}
	for _, line := range []string{
		fmt.Sprintf("simsvc_stage_oram_total_cycles_count %d", oramCount),
		"simsvc_stage_oram_sd_wait_cycles_bucket",
		"simsvc_stage_ns_read_total_cycles_count",
	} {
		if !strings.Contains(rec.Body.String(), line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}
