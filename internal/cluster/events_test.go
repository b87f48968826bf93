package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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

// wakeConfig turns fan-in on and pushes the fallback poll out of any
// test's reach, so a job that finishes in time was woken by its event.
func wakeConfig() CoordinatorConfig {
	return CoordinatorConfig{EventFanIn: true, StepInterval: time.Hour, HedgeAfter: -1}
}

// doneWithin waits up to d for a job to finish.
func doneWithin(t *testing.T, c *Coordinator, id string, d time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		st := jobState(t, c, id)
		switch {
		case st.State == simsvc.StateDone:
			return st
		case st.State.Terminal():
			t.Fatalf("job %s ended %s (%s)", id, st.State, st.Error)
		case time.Now().After(deadline):
			t.Fatalf("job %s still %s after %s: its dispatch never woke", id, st.State, d)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkWaiters fails the test unless the coordinator holds want
// completion waiters.
func checkWaiters(t *testing.T, c *Coordinator, want int) {
	t.Helper()
	if n := waitersLeft(c); n != want {
		t.Errorf("%d completion waiters registered, want %d", n, want)
	}
}

// awaitWorkerEvent reads sub until the worker's event for a job in the
// given state arrives, reporting false after 5s or if the bus closes.
func awaitWorkerEvent(sub *simsvc.Subscription, node, jobID string, state simsvc.State) bool {
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				return false
			}
			if ev.Node == node && ev.JobID == jobID && ev.State == state {
				return true
			}
		case <-deadline:
			return false
		}
	}
}

// TestFanInWake: with fan-in on, a dispatch wakes on its worker job's
// fanned-in done event. The fallback poll is an hour away, so polling
// alone would miss the deadline.
func TestFanInWake(t *testing.T) {
	gate := newGateTransport()
	w := newFakeWorker(t, simsvc.Config{Workers: 1, RunSim: instantSim})
	c := testCoordinator(t, nil, gate, wakeConfig(), w)

	doneWithin(t, c, submit(t, c, specJSON(1)).ID, 5*time.Second)
	checkWaiters(t, c, 0)
}

// TestFanInWakeIDCollision: two workers each hold a job with id
// j-00000001. One worker's done event must wake only the dispatch on that
// worker: the other worker's attempt sees no extra status poll or fetch,
// and still wakes on its own done event.
func TestFanInWakeIDCollision(t *testing.T) {
	gate := newGateTransport()
	release := make(chan struct{})
	wa := newFakeWorker(t, simsvc.Config{Workers: 1, RunSim: instantSim})
	wb := newFakeWorker(t, simsvc.Config{Workers: 1, RunSim: blockingSim(make(chan string, 1), release)})
	c := testCoordinator(t, nil, gate, wakeConfig(), wa, wb)
	sub := c.Service().Events().Subscribe(0)
	defer sub.Close()
	const remoteID = "j-00000001"
	statusPath, resultPath := "/v1/jobs/"+remoteID, "/v1/jobs/"+remoteID+"/result"

	// B's job runs and stays running; its dispatch makes the one poll
	// that follows registration, then waits.
	stB := submit(t, c, ownedBy(t, c, wb, 1)[0])
	waitFor(t, "the post-registration poll on B", func() bool {
		return gate.countRoute(http.MethodGet, wb.url(), statusPath) == 1
	})

	stA := doneWithin(t, c, submit(t, c, ownedBy(t, c, wa, 1)[0]).ID, 5*time.Second)
	if stA.Node != wa.url() || stA.RemoteID != remoteID {
		t.Fatalf("job A placed on %s as %s, want %s as %s", stA.Node, stA.RemoteID, wa.url(), remoteID)
	}
	if !awaitWorkerEvent(sub, wa.url(), remoteID, simsvc.StateDone) {
		t.Fatal("worker A's done event never fanned in")
	}
	if got := jobState(t, c, stB.ID).RemoteID; got != remoteID {
		t.Fatalf("job B runs as %s, want %s", got, remoteID)
	}
	checkWaiters(t, c, 1) // B's attempt

	close(release)
	doneWithin(t, c, stB.ID, 5*time.Second)
	// B: the post-registration poll and the poll its own event woke.
	if n := gate.countRoute(http.MethodGet, wb.url(), statusPath); n != 2 {
		t.Errorf("worker B saw %d status polls, want 2: another worker's event woke its attempt", n)
	}
	if n := gate.countRoute(http.MethodGet, wb.url(), resultPath); n != 1 {
		t.Errorf("worker B saw %d result fetches, want 1", n)
	}
	if n := gate.countRoute(http.MethodGet, wa.url(), resultPath); n != 1 {
		t.Errorf("worker A saw %d result fetches, want 1", n)
	}
	checkWaiters(t, c, 0)
}

// TestFanInWakeRegistrationRace: the worker's done event fans in while
// its acceptance of the job is still on the wire, before the dispatch has
// registered. The poll that follows registration must find the job done.
func TestFanInWakeRegistrationRace(t *testing.T) {
	release := make(chan struct{})
	w := newFakeWorker(t, simsvc.Config{Workers: 1, RunSim: blockingSim(make(chan string, 1), release)})
	var sub *simsvc.Subscription
	var once sync.Once
	gate := newGateTransport()
	gate.hold = func(req *http.Request) {
		if req.Method != http.MethodPost || req.URL.Path != "/v1/jobs" {
			return
		}
		once.Do(func() {
			close(release)
			if !awaitWorkerEvent(sub, w.url(), "j-00000001", simsvc.StateDone) {
				t.Error("worker's done event never fanned in")
			}
		})
	}
	c := testCoordinator(t, nil, gate, wakeConfig(), w)
	sub = c.Service().Events().Subscribe(0)
	defer sub.Close()

	doneWithin(t, c, submit(t, c, specJSON(1)).ID, 5*time.Second)
	checkWaiters(t, c, 0)
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
