package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"doram"
	"doram/internal/evtrace"
	"doram/internal/simsvc"
)

// TestVarzRecordsPerNodeErrors is the regression test for the merged
// /varz discarding fetch-failure detail: an unreachable node must appear
// in both `unreachable` and `errors`, with the transport error preserved,
// while the reachable node still merges normally.
func TestVarzRecordsPerNodeErrors(t *testing.T) {
	gate := newGateTransport()
	w1 := newFakeWorker(t, simsvc.Config{Workers: 1, RunSim: instantSim})
	w2 := newFakeWorker(t, simsvc.Config{Workers: 1, RunSim: instantSim})
	c := testCoordinator(t, nil, gate, CoordinatorConfig{}, w1, w2)

	gate.block(w2.url())
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/varz")
	if err != nil {
		t.Fatalf("get /varz: %v", err)
	}
	defer resp.Body.Close()
	var doc varzDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode: %v", err)
	}

	if len(doc.Unreachable) != 1 || doc.Unreachable[0] != w2.url() {
		t.Errorf("unreachable = %v, want [%s]", doc.Unreachable, w2.url())
	}
	msg, ok := doc.Errors[w2.url()]
	if !ok || msg == "" {
		t.Fatalf("errors[%s] missing from %v — fetch failure detail discarded", w2.url(), doc.Errors)
	}
	if !strings.Contains(msg, "refused") {
		t.Errorf("errors[%s] = %q, want the transport error preserved", w2.url(), msg)
	}
	if _, ok := doc.Errors[w1.url()]; ok {
		t.Errorf("reachable node %s has an error entry: %v", w1.url(), doc.Errors)
	}
	if _, ok := doc.Workers[w1.url()]; !ok {
		t.Errorf("reachable node %s missing from workers map", w1.url())
	}
}

// TestCoordinatorJobEventStream tails a cluster job's SSE stream after it
// completed: the replayed lifecycle must start at queued, end at done,
// and the stream must close cleanly at the terminal event. With fan-in
// on, the worker's own job — with the same id, j-00000001, in its own
// sequence — must not leak into the stream.
func TestCoordinatorJobEventStream(t *testing.T) {
	gate := newGateTransport()
	w := newFakeWorker(t, simsvc.Config{Workers: 1, RunSim: instantSim})
	c := testCoordinator(t, nil, gate, CoordinatorConfig{EventFanIn: true}, w)
	sub := c.Service().Events().Subscribe(0)
	defer sub.Close()

	st := waitState(t, c, submit(t, c, specJSON(1)).ID, simsvc.StateDone)
	for ev := range sub.C { // wait for the worker's done event to fan in
		if ev.Node != "" && ev.JobID == st.ID && ev.State == simsvc.StateDone {
			break
		}
	}

	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatalf("get events: %v", err)
	}
	defer resp.Body.Close()
	var states []simsvc.State
	sc := simsvc.NewSSEScanner(resp.Body)
	for {
		raw, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		ev, err := raw.Decode()
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if ev.JobID != st.ID || ev.Node != "" {
			t.Errorf("stream leaked event for %q from node %q", ev.JobID, ev.Node)
		}
		states = append(states, ev.State)
	}
	if len(states) < 2 || states[0] != simsvc.StateQueued || states[len(states)-1] != simsvc.StateDone {
		t.Errorf("states = %v, want queued ... done", states)
	}

	// Unknown jobs get a JSON 404, not an empty stream.
	r2, err := http.Get(srv.URL + "/v1/jobs/nope/events")
	if err != nil {
		t.Fatalf("get unknown: %v", err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job stream status = %d, want 404", r2.StatusCode)
	}
}

// TestEventFanIn opts into worker-stream fan-in and checks the merged bus
// carries both halves for one job: the coordinator's own cluster-level
// transitions (no Node) and the originating worker's transitions stamped
// with its id.
func TestEventFanIn(t *testing.T) {
	gate := newGateTransport()
	w := newFakeWorker(t, simsvc.Config{Workers: 1, RunSim: instantSim})
	c := testCoordinator(t, nil, gate, CoordinatorConfig{EventFanIn: true}, w)

	sub := c.Service().Events().Subscribe(0)
	defer sub.Close()

	st := waitState(t, c, submit(t, c, specJSON(1)).ID, simsvc.StateDone)

	var clusterDone, workerDone bool
	deadline := time.After(10 * time.Second)
	for !(clusterDone && workerDone) {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				t.Fatal("bus closed before both event halves arrived")
			}
			if ev.Kind != simsvc.EventJob || ev.State != simsvc.StateDone {
				continue
			}
			switch {
			case ev.Node == "" && ev.JobID == st.ID:
				clusterDone = true
			case ev.Node == w.url() && strings.HasPrefix(ev.JobID, "j-"):
				workerDone = true
			}
		case <-deadline:
			t.Fatalf("merged stream incomplete: cluster done %v, worker done %v",
				clusterDone, workerDone)
		}
	}
}

// breakdownSim completes instantly with a canned latency-attribution
// report, standing in for a trace-enabled run.
func breakdownSim(ctx context.Context, cfg doram.SimConfig) (*doram.SimResult, error) {
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
	}, nil
}

// TestCoordinatorPrometheusStageHistograms: once a job with a latency
// breakdown completes, the coordinator's /metrics must expose valid
// Prometheus text including the fleet counters, the cross-job per-stage
// mean histograms (a worker's result carries the breakdown but not the
// per-access histograms) and the job duration histogram.
func TestCoordinatorPrometheusStageHistograms(t *testing.T) {
	gate := newGateTransport()
	w := newFakeWorker(t, simsvc.Config{Workers: 1, RunSim: breakdownSim})
	c := testCoordinator(t, nil, gate, CoordinatorConfig{}, w)

	waitState(t, c, submit(t, c, specJSON(1)).ID, simsvc.StateDone)

	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("get /metrics: %v", err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); !strings.Contains(got, "version=0.0.4") {
		t.Errorf("content-type = %q, want the 0.0.4 text exposition", got)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	text := string(body)
	for _, want := range []string{
		"simsvc_jobs_completed 1",
		"cluster_jobs_dispatched 1",
		"simsvc_stage_oram_total_mean_cycles_bucket",
		"simsvc_stage_oram_read_phase_mean_cycles_count 1",
		"simsvc_stage_oram_write_phase_mean_cycles_sum",
		"simsvc_job_duration_ms_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
