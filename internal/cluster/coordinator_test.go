package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"doram"
	"doram/internal/obslog"
	"doram/internal/simsvc"
)

// specJSON returns a valid d-oram spec document distinguished by seed.
func specJSON(seed uint64) []byte {
	return []byte(fmt.Sprintf(`{"scheme":"d-oram","benchmark":"face","k":1,"seed":%d}`, seed))
}

// instantSim completes immediately with a seed-derived result.
func instantSim(ctx context.Context, cfg doram.SimConfig) (*doram.SimResult, error) {
	return &doram.SimResult{AvgNSExecCycles: float64(cfg.Seed)}, nil
}

// blockingSim signals each start on started, then blocks until release
// closes (completing with a seed-derived result) or its context ends.
func blockingSim(started chan<- string, release <-chan struct{}) func(context.Context, doram.SimConfig) (*doram.SimResult, error) {
	return func(ctx context.Context, cfg doram.SimConfig) (*doram.SimResult, error) {
		started <- cfg.Benchmark
		select {
		case <-release:
			return &doram.SimResult{AvgNSExecCycles: float64(cfg.Seed)}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// fakeWorker is one real simsvc service behind a real HTTP listener, with
// a scriptable simulation.
type fakeWorker struct {
	svc *simsvc.Service
	srv *httptest.Server
}

func newFakeWorker(t *testing.T, cfg simsvc.Config) *fakeWorker {
	t.Helper()
	svc := simsvc.New(cfg)
	srv := httptest.NewServer(svc.Handler())
	w := &fakeWorker{svc: svc, srv: srv}
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Close(ctx)
	})
	return w
}

func (w *fakeWorker) url() string { return w.srv.URL }

// gateTransport is an injectable transport that can sever individual
// workers (simulating a network partition or dead host) and counts
// requests per host and per method and path.
type gateTransport struct {
	mu      sync.Mutex
	blocked map[string]bool
	calls   map[string]int
	routes  map[string]int // keyed by routeKey
	// hold, when set, runs on each successful round trip before its
	// response is returned, so a test can delay chosen responses.
	hold func(*http.Request)
}

func newGateTransport() *gateTransport {
	return &gateTransport{blocked: make(map[string]bool), calls: make(map[string]int), routes: make(map[string]int)}
}

func routeKey(method, host, path string) string { return method + " " + host + path }

// countRoute returns how many requests of one method reached one path
// of a worker.
func (g *gateTransport) countRoute(method, baseURL, path string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.routes[routeKey(method, g.hostOf(baseURL), path)]
}

func (g *gateTransport) hostOf(raw string) string {
	u, err := url.Parse(raw)
	if err != nil {
		return raw
	}
	return u.Host
}

func (g *gateTransport) block(baseURL string)   { g.set(baseURL, true) }
func (g *gateTransport) unblock(baseURL string) { g.set(baseURL, false) }

func (g *gateTransport) set(baseURL string, blocked bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.blocked[g.hostOf(baseURL)] = blocked
}

func (g *gateTransport) count(baseURL string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.calls[g.hostOf(baseURL)]
}

func (g *gateTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	g.mu.Lock()
	g.calls[req.URL.Host]++
	g.routes[routeKey(req.Method, req.URL.Host, req.URL.Path)]++
	dead, hold := g.blocked[req.URL.Host], g.hold
	g.mu.Unlock()
	if dead {
		return nil, fmt.Errorf("gate: connection to %s refused", req.URL.Host)
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && hold != nil {
		hold(req)
	}
	return resp, err
}

// testLogWriter writes each log line to the test's log until the test
// ends; late lines (cancel forwarding still in flight) are dropped.
type testLogWriter struct {
	t     *testing.T
	mu    sync.Mutex
	ended bool
}

func (w *testLogWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.ended {
		w.t.Log(strings.TrimSuffix(string(p), "\n"))
	}
	return len(p), nil
}

// testCoordinator builds a coordinator with the given workers joined. It
// polls every 5ms so fleet tests run in real time; heartbeat expiry and
// hedging are off unless a test asks (Run is not started). A non-nil clk
// drives the breakers' cooldowns. Logging stops when the test ends, since
// cancel forwarding may still be in flight.
func testCoordinator(t *testing.T, clk *fakeClock, gate *gateTransport, cfg CoordinatorConfig, workers ...*fakeWorker) *Coordinator {
	t.Helper()
	if cfg.NodeTimeout == 0 {
		cfg.NodeTimeout = 24 * time.Hour
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = -1
	}
	if cfg.StepInterval == 0 {
		cfg.StepInterval = 5 * time.Millisecond
	}
	if cfg.Transport == nil && gate != nil {
		cfg.Transport = gate
	}
	tw := &testLogWriter{t: t}
	cfg.Logger = obslog.New(tw, obslog.FormatText, slog.LevelInfo)
	c := NewCoordinator(cfg)
	t.Cleanup(func() {
		c.Shutdown()
		if n := waitersLeft(c); n != 0 {
			t.Errorf("%d completion waiters outlived their dispatches", n)
		}
		tw.mu.Lock()
		tw.ended = true
		tw.mu.Unlock()
	})
	if clk != nil {
		c.now = clk.now
	}
	for _, w := range workers {
		c.join(w.url(), c.now())
	}
	return c
}

// waitersLeft returns the size of the coordinator's completion-waiter
// table.
func waitersLeft(c *Coordinator) int {
	c.waitMu.Lock()
	defer c.waitMu.Unlock()
	return len(c.waiters)
}

// waitFor polls pred until it holds, failing the test after 10s.
func waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func jobState(t *testing.T, c *Coordinator, id string) JobStatus {
	t.Helper()
	st, err := c.Status(id)
	if err != nil {
		t.Fatalf("status %s: %v", id, err)
	}
	return st
}

// waitState waits for a job to reach the given state.
func waitState(t *testing.T, c *Coordinator, id string, want simsvc.State) JobStatus {
	t.Helper()
	var st JobStatus
	waitFor(t, "job "+id+" "+string(want), func() bool {
		st = jobState(t, c, id)
		if st.State.Terminal() && st.State != want {
			t.Fatalf("job %s ended %s (%s), want %s", id, st.State, st.Error, want)
		}
		return st.State == want
	})
	return st
}

// placedOn waits for a dispatched job's placement and returns its node.
func placedOn(t *testing.T, c *Coordinator, id string) string {
	t.Helper()
	var node string
	waitFor(t, "job "+id+" placed", func() bool { node = jobState(t, c, id).Node; return node != "" })
	return node
}

// submit admits a spec through the coordinator.
func submit(t *testing.T, c *Coordinator, spec []byte) JobStatus {
	t.Helper()
	st, err := c.Submit(spec)
	if err != nil {
		t.Fatalf("submit %s: %v", spec, err)
	}
	return st
}

// ownedBy returns n specs whose ring owner is the given worker.
func ownedBy(t *testing.T, c *Coordinator, w *fakeWorker, n int) [][]byte {
	t.Helper()
	var out [][]byte
	c.mu.Lock()
	defer c.mu.Unlock()
	for seed := uint64(1); seed <= 256 && len(out) < n; seed++ {
		p, _ := doram.ParamsFromJSON(specJSON(seed))
		if c.ring.owner(p.Hash()) == w.url() {
			out = append(out, specJSON(seed))
		}
	}
	if len(out) < n {
		t.Fatalf("only %d seeds in 1..256 owned by %s", len(out), w.url())
	}
	return out
}

// TestClusterAffinityAndResultRelay: jobs land on their ring owner, equal
// specs land on the same worker, and the coordinator serves exactly the
// worker's result bytes.
func TestClusterAffinityAndResultRelay(t *testing.T) {
	gate := newGateTransport()
	w1 := newFakeWorker(t, simsvc.Config{Workers: 1, RunSim: instantSim})
	w2 := newFakeWorker(t, simsvc.Config{Workers: 1, RunSim: instantSim})
	c := testCoordinator(t, nil, gate, CoordinatorConfig{}, w1, w2)

	// Four specs owned by each worker, so both nodes are hit whatever
	// ring positions their random ports give them.
	specs := append(ownedBy(t, c, w1, 4), ownedBy(t, c, w2, 4)...)
	byNode := make(map[string][]string)
	for i, spec := range specs {
		st := waitState(t, c, submit(t, c, spec).ID, simsvc.StateDone)
		c.mu.Lock()
		owner := c.ring.owner(st.SpecHash)
		c.mu.Unlock()
		if st.Node != owner {
			t.Errorf("spec %d ran on %s, ring owner is %s", i, st.Node, owner)
		}
		byNode[st.Node] = append(byNode[st.Node], st.ID)
	}
	if len(byNode[w1.url()]) != 4 || len(byNode[w2.url()]) != 4 {
		t.Fatalf("want 4 jobs on each node — affinity map: %v", byNode)
	}

	// Byte-equality: the coordinator's result is exactly the worker's.
	st := jobState(t, c, byNode[w1.url()][0])
	got, err := c.Result(st.ID)
	if err != nil {
		t.Fatalf("coordinator result: %v", err)
	}
	resp, err := http.Get(st.Node + "/v1/jobs/" + st.RemoteID + "/result")
	if err != nil {
		t.Fatalf("direct worker result: %v", err)
	}
	defer resp.Body.Close()
	want, _ := io.ReadAll(resp.Body)
	if !bytes.Equal(got, want) {
		t.Errorf("coordinator result bytes differ from the worker's:\n%s\nvs\n%s", got, want)
	}
}

// heartbeater keeps the listed workers alive against a running
// coordinator until silenced one by one (or the test ends).
type heartbeater struct {
	mu     sync.Mutex
	silent map[string]bool
}

func startHeartbeats(t *testing.T, c *Coordinator, every time.Duration, workers ...*fakeWorker) *heartbeater {
	h := &heartbeater{silent: make(map[string]bool)}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	t.Cleanup(func() { cancel(); <-done })
	go func() {
		defer close(done)
		for sleep(ctx, every) {
			h.mu.Lock()
			for _, w := range workers {
				if !h.silent[w.url()] {
					c.heartbeat(w.url(), c.now())
				}
			}
			h.mu.Unlock()
		}
	}()
	return h
}

func (h *heartbeater) silence(url string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.silent[url] = true
}

// TestFailoverOnHeartbeatDeath: a worker that stops heartbeating and
// answering is declared dead and its in-flight job re-dispatches to the
// ring successor, completing there.
func TestFailoverOnHeartbeatDeath(t *testing.T) {
	gate := newGateTransport()
	release := make(chan struct{})
	started := make(chan string, 8)
	w1 := newFakeWorker(t, simsvc.Config{Workers: 1, RunSim: blockingSim(started, release)})
	w2 := newFakeWorker(t, simsvc.Config{Workers: 1, RunSim: blockingSim(started, release)})
	c := testCoordinator(t, nil, gate, CoordinatorConfig{
		HeartbeatInterval: 20 * time.Millisecond,
		NodeTimeout:       200 * time.Millisecond,
	}, w1, w2)
	hb := startHeartbeats(t, c, 20*time.Millisecond, w1, w2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go c.Run(ctx)

	id := submit(t, c, specJSON(7)).ID
	<-started // the owner's worker pool picked it up
	victim := placedOn(t, c, id)
	survivor := w1
	if victim == w1.url() {
		survivor = w2
	}

	// The victim vanishes: no more heartbeats, no more network.
	hb.silence(victim)
	gate.block(victim)
	waitFor(t, "re-dispatch to the survivor", func() bool { return jobState(t, c, id).Node == survivor.url() })
	<-started // the re-dispatched copy started on the survivor
	close(release)
	final := waitState(t, c, id, simsvc.StateDone)
	if final.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (original + failover)", final.Attempts)
	}
	waitFor(t, "the victim declared dead", func() bool { return c.Registry().CounterValues()["cluster.nodes.dead"] == 1 })
	cv := c.Registry().CounterValues()
	if cv["cluster.jobs.redispatched"] != 1 || cv["cluster.nodes.alive"] != 1 {
		t.Errorf("counters after failover: redispatched=%d alive=%d, want 1/1",
			cv["cluster.jobs.redispatched"], cv["cluster.nodes.alive"])
	}
}

// TestWorkerDrainReDispatch: a worker that cancels a job on its own
// (drain) loses it to the next node — worker-side cancellation is not
// client cancellation.
func TestWorkerDrainReDispatch(t *testing.T) {
	gate := newGateTransport()
	release := make(chan struct{})
	started := make(chan string, 8)
	w1 := newFakeWorker(t, simsvc.Config{Workers: 1, RunSim: blockingSim(started, release)})
	w2 := newFakeWorker(t, simsvc.Config{Workers: 1, RunSim: blockingSim(started, release)})
	c := testCoordinator(t, nil, gate, CoordinatorConfig{}, w1, w2)

	id := submit(t, c, specJSON(3)).ID
	<-started
	owner, other := w1, w2
	if placedOn(t, c, id) == w2.url() {
		owner, other = w2, w1
	}

	// The owner drains: its running job aborts as worker-side cancelled.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	owner.svc.Close(ctx)
	cancel()

	waitFor(t, "re-dispatch after drain", func() bool { return jobState(t, c, id).Node == other.url() })
	<-started
	close(release)
	if got := waitState(t, c, id, simsvc.StateDone); got.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", got.Attempts)
	}
}

// TestHedgedRequestWins: a straggling primary gets a hedge on another
// node; the hedge finishes first and its result completes the job, with
// the loser cancelled.
func TestHedgedRequestWins(t *testing.T) {
	gate := newGateTransport()
	started := make(chan string, 8)
	release := make(chan struct{}) // never released: the straggler never finishes on its own
	defer close(release)
	w1 := newFakeWorker(t, simsvc.Config{Workers: 1, RunSim: blockingSim(started, release)}) // the straggler
	w2 := newFakeWorker(t, simsvc.Config{Workers: 1, RunSim: instantSim})                    // the hedge target
	c := testCoordinator(t, nil, gate, CoordinatorConfig{HedgeAfter: 50 * time.Millisecond}, w1, w2)

	id := submit(t, c, ownedBy(t, c, w1, 1)[0]).ID
	<-started // the primary reached the slow owner
	st := waitState(t, c, id, simsvc.StateDone)

	cv := c.Registry().CounterValues()
	if cv["cluster.jobs.hedged"] != 1 || cv["cluster.hedge.wins"] != 1 {
		t.Errorf("hedged = %d, hedge.wins = %d, want 1/1", cv["cluster.jobs.hedged"], cv["cluster.hedge.wins"])
	}
	if !st.Hedged || st.Node != w2.url() || st.Attempts != 2 {
		t.Errorf("winning job status %+v, want hedged, won on %s after 2 attempts", st.Placement, w2.url())
	}
	if _, err := c.Result(id); err != nil {
		t.Errorf("result after hedge win: %v", err)
	}

	// The losing straggler gets a best-effort cancel.
	waitFor(t, "the losing primary cancelled", func() bool {
		ws, err := w1.svc.Status("j-00000001")
		return err == nil && ws.State == simsvc.StateCancelled
	})
}

// TestBreakerEjectsFlappingWorker: consecutive transport failures open the
// worker's breaker and take it out of dispatch; after the cooldown, probe
// successes re-admit it.
func TestBreakerEjectsFlappingWorker(t *testing.T) {
	clk := newFakeClock()
	gate := newGateTransport()
	w1 := newFakeWorker(t, simsvc.Config{Workers: 1, RunSim: instantSim})
	w2 := newFakeWorker(t, simsvc.Config{Workers: 1, RunSim: instantSim})
	c := testCoordinator(t, clk, gate, CoordinatorConfig{
		BreakerThreshold: 3,
		BreakerCooldown:  5 * time.Second,
		BreakerProbes:    2,
	}, w1, w2)
	owned := ownedBy(t, c, w1, 6) // dispatch wants w1 first for each

	gate.block(w1.url())
	// Three submissions: each tries w1 (transport failure), falls through
	// to w2, and still completes. The third failure opens the breaker.
	for i := 0; i < 3; i++ {
		st := waitState(t, c, submit(t, c, owned[i]).ID, simsvc.StateDone)
		if st.Node != w2.url() {
			t.Fatalf("job %d ran on %q, want fallback to %s", i, st.Node, w2.url())
		}
	}
	var w1status NodeStatus
	for _, n := range c.Nodes() {
		if n.ID == w1.url() {
			w1status = n
		}
	}
	if w1status.Breaker != "open" || w1status.BreakerTrips != 1 {
		t.Fatalf("w1 breaker %s trips %d after 3 transport failures, want open/1", w1status.Breaker, w1status.BreakerTrips)
	}

	// Ejected: a new submission must not even try w1.
	before := gate.count(w1.url())
	if st := waitState(t, c, submit(t, c, owned[3]).ID, simsvc.StateDone); st.Node != w2.url() {
		t.Errorf("ejected worker still receiving dispatches: %+v", st.Placement)
	}
	if gate.count(w1.url()) != before {
		t.Errorf("request sent to a worker with an open breaker")
	}

	// Heal the network, pass the cooldown: probes flow and re-admit w1.
	gate.unblock(w1.url())
	clk.advance(6 * time.Second)
	for i := 4; i < 6; i++ {
		waitState(t, c, submit(t, c, owned[i]).ID, simsvc.StateDone)
	}
	for _, n := range c.Nodes() {
		if n.ID == w1.url() && n.Breaker != "closed" {
			t.Errorf("w1 breaker %s after successful probes, want closed", n.Breaker)
		}
	}
}

// TestBackpressurePreservesAffinity: a saturated owner answers 429; the
// coordinator waits out the Retry-After instead of spilling the job to
// the idle second node, then dispatches to the same owner.
func TestBackpressurePreservesAffinity(t *testing.T) {
	gate := newGateTransport()
	release := make(chan struct{})
	started := make(chan string, 8)
	// One worker slot, queue depth 1: a running job plus a queued one
	// saturate the owner.
	owner := newFakeWorker(t, simsvc.Config{Workers: 1, QueueDepth: 1, RunSim: blockingSim(started, release)})
	idle := newFakeWorker(t, simsvc.Config{Workers: 1, RunSim: instantSim})
	c := testCoordinator(t, nil, gate, CoordinatorConfig{}, owner, idle)
	spec := ownedBy(t, c, owner, 1)[0]

	// Saturate the owner directly (not via the coordinator).
	p, _ := doram.ParamsFromJSON(specJSON(1000))
	if _, err := owner.svc.Submit(p); err != nil {
		t.Fatalf("saturating submit: %v", err)
	}
	<-started // dequeued and running; the queue is empty again
	p, _ = doram.ParamsFromJSON(specJSON(1001))
	if _, err := owner.svc.Submit(p); err != nil {
		t.Fatalf("queue-filling submit: %v", err)
	}

	id := submit(t, c, spec).ID
	waitFor(t, "the owner's 429", func() bool { return owner.svc.Registry().CounterValues()["simsvc.jobs.rejected"] >= 1 })
	if st := jobState(t, c, id); st.Node != "" || st.State.Terminal() {
		t.Errorf("job placed or finished while its owner was saturated: %s on %q", st.State, st.Node)
	}

	close(release) // the owner finishes its backlog
	if st := waitState(t, c, id, simsvc.StateDone); st.Node != owner.url() {
		t.Errorf("job completed on %q, want the saturated-then-freed owner %q", st.Node, owner.url())
	}
	if n := idle.svc.Registry().CounterValues()["simsvc.jobs.submitted"]; n != 0 {
		t.Errorf("the idle node received %d submissions, want the job held for its owner", n)
	}
}

// TestWorkerRejectionIsTerminal: a deterministic worker-side 4xx (spec
// above the worker's trace cap) fails the job — no retry storm against a
// rejection that will never succeed.
func TestWorkerRejectionIsTerminal(t *testing.T) {
	gate := newGateTransport()
	w := newFakeWorker(t, simsvc.Config{Workers: 1, MaxTraceLen: 1000, RunSim: instantSim})
	c := testCoordinator(t, nil, gate, CoordinatorConfig{}, w)

	id := submit(t, c, []byte(`{"scheme":"d-oram","benchmark":"face","k":1,"trace_len":5000}`)).ID
	waitState(t, c, id, simsvc.StateFailed)
	if _, err := c.Result(id); err == nil {
		t.Errorf("failed job handed out a result")
	}
	if n := gate.count(w.url()); n != 1 {
		t.Errorf("the rejecting worker saw %d requests, want the one submission", n)
	}
}

// TestSubmitValidation: malformed specs are rejected coordinator-side
// without consuming cluster capacity.
func TestSubmitValidation(t *testing.T) {
	c := testCoordinator(t, nil, nil, CoordinatorConfig{})
	if _, err := c.Submit([]byte(`{"scheme":"quantum"}`)); err == nil {
		t.Fatalf("bad scheme admitted")
	}
	if _, err := c.Submit([]byte(`{nope`)); err == nil {
		t.Fatalf("malformed JSON admitted")
	}
	if got := c.Registry().CounterValues()["simsvc.jobs.submitted"]; got != 0 {
		t.Errorf("invalid specs counted as submissions: %d", got)
	}
}

// TestCancelForwarded: cancelling at the coordinator cancels the cluster
// job and releases the worker-side run.
func TestCancelForwarded(t *testing.T) {
	gate := newGateTransport()
	started := make(chan string, 8)
	w := newFakeWorker(t, simsvc.Config{Workers: 1, RunSim: blockingSim(started, nil)})
	c := testCoordinator(t, nil, gate, CoordinatorConfig{}, w)

	id := submit(t, c, specJSON(9)).ID
	<-started
	placedOn(t, c, id)
	remote := jobState(t, c, id).RemoteID
	if err := c.Service().Cancel(id); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	waitState(t, c, id, simsvc.StateCancelled)
	// The forwarded cancel reaches the worker and ends its run.
	waitFor(t, "the worker-side cancel", func() bool {
		ws, err := w.svc.Status(remote)
		if err != nil {
			t.Fatalf("worker status: %v", err)
		}
		if ws.State.Terminal() && ws.State != simsvc.StateCancelled {
			t.Fatalf("worker-side state %s, want cancelled", ws.State)
		}
		return ws.State == simsvc.StateCancelled
	})
}

// TestMergedVarz: the coordinator's /varz aggregates per-worker counters
// and element-wise sums them.
func TestMergedVarz(t *testing.T) {
	gate := newGateTransport()
	w1 := newFakeWorker(t, simsvc.Config{Workers: 1, RunSim: instantSim})
	w2 := newFakeWorker(t, simsvc.Config{Workers: 1, RunSim: instantSim})
	c := testCoordinator(t, nil, gate, CoordinatorConfig{}, w1, w2)
	front := httptest.NewServer(c.Handler())
	defer front.Close()

	var ids []string
	for seed := uint64(1); seed <= 6; seed++ {
		ids = append(ids, submit(t, c, specJSON(seed)).ID)
	}
	for _, id := range ids {
		waitState(t, c, id, simsvc.StateDone)
	}

	resp, err := http.Get(front.URL + "/varz")
	if err != nil {
		t.Fatalf("GET /varz: %v", err)
	}
	defer resp.Body.Close()
	var doc varzDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding varz: %v", err)
	}
	if len(doc.Workers) != 2 {
		t.Fatalf("varz covers %d workers, want 2: %+v", len(doc.Workers), doc)
	}
	var sum uint64
	for _, wc := range doc.Workers {
		sum += wc["simsvc.jobs.submitted"]
	}
	if sum != 6 || doc.Merged["simsvc.jobs.submitted"] != 6 {
		t.Errorf("worker submissions sum %d, merged %d, want 6/6", sum, doc.Merged["simsvc.jobs.submitted"])
	}
	if doc.Cluster["simsvc.jobs.completed"] != 6 || doc.Cluster["cluster.jobs.dispatched"] != 6 {
		t.Errorf("coordinator completed = %d, dispatched = %d, want 6/6",
			doc.Cluster["simsvc.jobs.completed"], doc.Cluster["cluster.jobs.dispatched"])
	}
	if len(doc.Unreachable) != 0 {
		t.Errorf("unexpected unreachable workers: %v", doc.Unreachable)
	}
}

// TestWorkerCacheHitFastPath: a spec the owner has already computed
// completes in the dispatch round trip via the worker's result cache,
// without waiting for a status poll.
func TestWorkerCacheHitFastPath(t *testing.T) {
	gate := newGateTransport()
	w := newFakeWorker(t, simsvc.Config{Workers: 1, RunSim: instantSim})
	// No coordinator cache, and a poll cadence no test outlives: only the
	// fast path can finish the job.
	c := testCoordinator(t, nil, gate, CoordinatorConfig{
		StepInterval: time.Hour,
		Service:      simsvc.Config{CacheEntries: -1},
	}, w)

	p, _ := doram.ParamsFromJSON(specJSON(11))
	job, err := w.svc.Submit(p)
	if err != nil {
		t.Fatalf("warming submit: %v", err)
	}
	<-job.Done()
	want, err := w.svc.ResultJSON(job.ID())
	if err != nil {
		t.Fatalf("worker result: %v", err)
	}

	st := waitState(t, c, submit(t, c, specJSON(11)).ID, simsvc.StateDone)
	if st.Node != w.url() {
		t.Errorf("fast-path job node %q, want %s", st.Node, w.url())
	}
	if got, _ := c.Result(st.ID); !bytes.Equal(got, want) {
		t.Errorf("fast-path result bytes differ from the worker's cached result")
	}
}

// TestCoordinatorTerminalJobRetention: the coordinator's job table keeps
// the service's retention bound — beyond RetainJobs terminal entries the
// oldest are forgotten (404), the newest stay queryable, and in-flight
// jobs are never swept regardless of how much churn completes after them.
func TestCoordinatorTerminalJobRetention(t *testing.T) {
	gate := newGateTransport()
	release := make(chan struct{})
	started := make(chan string, 8)
	blocking := func(ctx context.Context, cfg doram.SimConfig) (*doram.SimResult, error) {
		if cfg.Seed == 1 { // the in-flight job the sweep must not touch
			return blockingSim(started, release)(ctx, cfg)
		}
		return instantSim(ctx, cfg)
	}
	w := newFakeWorker(t, simsvc.Config{Workers: 2, RunSim: blocking})
	c := testCoordinator(t, nil, gate, CoordinatorConfig{Service: simsvc.Config{RetainJobs: 2}}, w)

	stalled := submit(t, c, specJSON(1)).ID
	<-started // its worker picked it up and is now blocked

	var ids []string
	for seed := uint64(2); seed <= 5; seed++ {
		ids = append(ids, waitState(t, c, submit(t, c, specJSON(seed)).ID, simsvc.StateDone).ID)
	}

	var se *simsvc.Error
	for _, id := range ids[:2] { // oldest terminal jobs forgotten
		if _, err := c.Status(id); !errors.As(err, &se) || se.Kind != simsvc.ErrNotFound {
			t.Errorf("evicted job %s: got err %v, want ErrNotFound", id, err)
		}
	}
	for _, id := range ids[2:] { // newest RetainJobs stay queryable
		if st, err := c.Status(id); err != nil || st.State != simsvc.StateDone {
			t.Errorf("retained job %s: err %v, state %v", id, err, st.State)
		}
	}
	if st, err := c.Status(stalled); err != nil || st.State.Terminal() {
		t.Errorf("in-flight job swept: err %v, state %v", err, st.State)
	}

	// Completion enrolls it in the FIFO and displaces the then-oldest.
	close(release)
	waitState(t, c, stalled, simsvc.StateDone)
	if _, err := c.Status(ids[2]); !errors.As(err, &se) || se.Kind != simsvc.ErrNotFound {
		t.Errorf("job %s should have been displaced by the completion: %v", ids[2], err)
	}
}

// TestFleetConcurrentDropout submits many jobs at once while one of three
// workers drops out mid-flight. The dispatch goroutines share node and
// breaker state, so CI runs this under the race detector repeatedly;
// every job must still finish with its own result.
func TestFleetConcurrentDropout(t *testing.T) {
	gate := newGateTransport()
	sim := func(ctx context.Context, cfg doram.SimConfig) (*doram.SimResult, error) {
		if !sleep(ctx, time.Duration(cfg.Seed%5)*time.Millisecond) {
			return nil, ctx.Err()
		}
		return instantSim(ctx, cfg)
	}
	var workers []*fakeWorker
	for i := 0; i < 3; i++ {
		workers = append(workers, newFakeWorker(t, simsvc.Config{Workers: 2, QueueDepth: 64, RunSim: sim}))
	}
	c := testCoordinator(t, nil, gate, CoordinatorConfig{BreakerCooldown: time.Hour}, workers...)
	victim := workers[1]

	const nJobs = 48
	ids := make([]string, nJobs)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := c.Submit(specJSON(uint64(i + 1)))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ids[i] = st.ID
		}(i)
		if i == nJobs/3 {
			// The victim drops out: its network dies, and it leaves.
			gate.block(victim.url())
			go c.leave(victim.url())
		}
	}
	wg.Wait()
	for i, id := range ids {
		if id == "" {
			continue // submit failed; already reported
		}
		waitState(t, c, id, simsvc.StateDone)
		res, err := c.Service().Result(id)
		if err != nil || res.AvgNSExecCycles != float64(i+1) {
			t.Errorf("job %d result %+v (err %v), want its own seed %d", i, res, err, i+1)
		}
	}
}
