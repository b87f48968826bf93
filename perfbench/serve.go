package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"doram"
	"doram/internal/cluster"
	"doram/internal/core"
	"doram/internal/evtrace"
	"doram/internal/loadgen"
	"doram/internal/obslog"
	"doram/internal/simsvc"
	"doram/internal/xrand"
)

// serve-cluster runs an in-process coordinator and two one-worker doramd
// nodes on loopback with shipped defaults and empty caches, and drives
// them open-loop with a loadgen plan: Poisson arrivals, 3 tenants × 16
// keys, Zipf 1.1, 600-access traced D-ORAM specs. The end-to-end run
// repeats the repository's recorded serving workload in rounds, each on a
// fleet of its own; the traced run adds a ladder of fixed rates.

const (
	serveNodes    = 2
	serveTenants  = 3
	serveKeys     = 16
	serveZipf     = 1.1
	serveTraceLen = 600
	// A round is the repository's recorded serving workload
	// (BENCH_serving.json and the CI load-smoke job: doramload -rate 400
	// -requests 200 with this tenant mix) on cold caches: a burst of cache
	// misses that queue on the workers and simulate, while repeated keys
	// turn into cache hits as their specs complete.
	serveRate          = 400.0 // nominal requests per second
	serveRoundRequests = 200
	serveRoundLen      = time.Duration(serveRoundRequests / serveRate * float64(time.Second))
	// serveLimit is the latency every request must meet: a slower or
	// failed request counts as failed, and a ladder rate whose 99th
	// percentile exceeds it is beyond the cluster's capacity.
	serveLimit = 5 * time.Second
	// serveMaxBacklog is the most requests a ladder rate may leave
	// outstanding when its last request is sent.
	serveMaxBacklog = 4 * serveNodes
	serveResims     = 2  // served specs re-simulated in-process per phase
	serveSetUps     = 32 // fleet starts timed per run, half before and half after
)

// serveLadder holds the fixed rates the traced run sustains, each for a
// step on a fleet of its own, to find the highest the cluster keeps up with.
var serveLadder = []float64{serveRate, 1.5 * serveRate, 2 * serveRate, 3 * serveRate, 4 * serveRate}

type simFunc = func(context.Context, doram.SimConfig) (*doram.SimResult, error)

// fleet is the coordinator and its workers, each on its own loopback
// listener.
type fleet struct {
	url     string
	coord   *cluster.Coordinator
	svcs    []*simsvc.Service
	servers []*http.Server
	cancel  context.CancelFunc
	loops   sync.WaitGroup // coordinator control loop and worker join loops
	serving sync.WaitGroup // http.Server.Serve goroutines
}

// startFleet brings the cluster up and returns once every worker has
// joined. runSim nil means the shipped doram.SimulateContext.
func startFleet(runSim simFunc) (*fleet, error) {
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{cancel: cancel}
	f.coord = cluster.NewCoordinator(cluster.CoordinatorConfig{Logger: obslog.Discard(), EventFanIn: true})
	url, err := f.serve(f.coord.Handler())
	if err != nil {
		f.stop()
		return nil, err
	}
	f.url = url
	f.loops.Add(1)
	go func() {
		defer f.loops.Done()
		f.coord.Run(ctx)
	}()
	for i := 0; i < serveNodes; i++ {
		svc := simsvc.New(simsvc.Config{Workers: 1, Logger: obslog.Discard(), RunSim: runSim})
		f.svcs = append(f.svcs, svc)
		adv, err := f.serve(svc.Handler())
		if err != nil {
			f.stop()
			return nil, err
		}
		f.loops.Add(1)
		go func(seed uint64) {
			defer f.loops.Done()
			// Join returns ctx's error once the fleet stops.
			_ = cluster.Join(ctx, cluster.JoinConfig{Coordinator: f.url, Advertise: adv, Logger: obslog.Discard(), Seed: seed})
		}(uint64(i + 1))
	}
	deadline := time.Now().Add(10 * time.Second)
	for f.alive() < serveNodes {
		if time.Now().After(deadline) {
			f.stop()
			return nil, errors.New("workers did not join the coordinator")
		}
		time.Sleep(50 * time.Microsecond)
	}
	return f, nil
}

func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return "http://" + ln.Addr().String(), nil
}

func (f *fleet) alive() int {
	n := 0
	for _, ns := range f.coord.Nodes() {
		if ns.Alive {
			n++
		}
	}
	return n
}

// stop ends the join and control loops, closes every server and drains
// the workers, waiting for all of it.
func (f *fleet) stop() {
	f.cancel()
	f.loops.Wait()
	f.coord.Shutdown()
	for _, srv := range f.servers {
		srv.Close()
	}
	f.serving.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, svc := range f.svcs {
		_ = svc.Close(ctx) // queues are empty once every request has finished
	}
}

func (f *fleet) counter(name string) float64 {
	return float64(f.coord.Registry().CounterValues()[name])
}

// served is one request's record, times relative to the phase start.
type served struct {
	req        loadgen.Request
	sent, done time.Duration
	submit     time.Duration // POST /v1/jobs round trip (the accepted attempt)
	result     time.Duration // GET result round trip
	size       int           // result bytes
	hit        bool          // answered from the coordinator's cache
	retries    int
	job        cluster.JobStatus
	body       []byte
	err        error
}

func (s served) ok() bool { return s.err == nil }

// latency is the due-time-to-result-bytes latency; a failed request reads
// as serveLimit×10 so it misses any limit without breaking quantiles.
func (s served) latency() time.Duration {
	if !s.ok() {
		return 10 * serveLimit
	}
	return s.done - s.req.At
}

// completion is the coordinator's terminal event for one job.
type completion struct {
	ch    chan struct{}
	state simsvc.State
	at    time.Time
}

// workerJob holds the event times of one job on one worker.
type workerJob struct {
	queued, running, done time.Time
}

// driver is the benchmark's load generator. Requests go over one bounded
// transport (at most GOMAXPROCS connections); job completions arrive on
// one SSE stream from the coordinator.
type driver struct {
	f  *fleet
	hc *http.Client

	mu       sync.Mutex
	jobs     map[string]*completion // cluster job id → completion
	workers  map[string]*workerJob  // worker URL + " " + worker job id
	inFlight int
	stream   sync.WaitGroup
	cancel   context.CancelFunc
}

func newDriver(f *fleet) (*driver, error) {
	ctx, cancel := context.WithCancel(context.Background())
	d := &driver{
		f: f,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     runtime.GOMAXPROCS(0),
			MaxIdleConnsPerHost: runtime.GOMAXPROCS(0),
		}},
		jobs:    map[string]*completion{},
		workers: map[string]*workerJob{},
		cancel:  cancel,
	}
	ready := make(chan error, 1)
	d.stream.Add(1)
	go func() {
		defer d.stream.Done()
		d.follow(ctx, ready)
	}()
	if err := <-ready; err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *driver) close() {
	d.cancel()
	d.stream.Wait()
	d.hc.CloseIdleConnections()
}

// follow reads the coordinator's merged event stream, reconnecting from
// the last event id if the stream ends early, until ctx ends. It reports
// on ready once the first subscription is open.
func (d *driver) follow(ctx context.Context, ready chan<- error) {
	sc := &http.Client{Transport: &http.Transport{}}
	defer sc.CloseIdleConnections()
	var last string
	for ctx.Err() == nil {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.f.url+"/events", nil)
		if err == nil && last != "" {
			req.Header.Set("Last-Event-ID", last)
		}
		var resp *http.Response
		if err == nil {
			resp, err = sc.Do(req)
		}
		if err != nil {
			if ready != nil {
				ready <- err
				return
			}
			select {
			case <-ctx.Done():
			case <-time.After(10 * time.Millisecond):
			}
			continue
		}
		if ready != nil {
			ready <- nil
			ready = nil
		}
		scan := simsvc.NewSSEScanner(resp.Body)
		for {
			ev, err := scan.Next()
			if err != nil {
				break
			}
			last = ev.ID
			if e, err := ev.Decode(); err == nil {
				d.observe(e)
			}
		}
		resp.Body.Close()
	}
}

func (d *driver) observe(e simsvc.Event) {
	if e.Kind != simsvc.EventJob {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if e.Node != "" {
		w := d.workers[e.Node+" "+e.JobID]
		if w == nil {
			w = &workerJob{}
			d.workers[e.Node+" "+e.JobID] = w
		}
		switch e.State {
		case simsvc.StateQueued:
			w.queued = e.Time
		case simsvc.StateRunning:
			w.running = e.Time
		case simsvc.StateDone:
			w.done = e.Time
		}
		return
	}
	if !e.State.Terminal() {
		return
	}
	c := d.completionLocked(e.JobID)
	if c.state == "" {
		c.state, c.at = e.State, e.Time
		close(c.ch)
	}
}

func (d *driver) completionLocked(id string) *completion {
	c := d.jobs[id]
	if c == nil {
		c = &completion{ch: make(chan struct{})}
		d.jobs[id] = c
	}
	return c
}

// phase is one fixed-rate run of a plan.
type phase struct {
	reqs    []loadgen.Request
	out     []served
	wrong   []bool    // the request's output failed a check
	backlog int       // requests outstanding when the last was sent
	late    []float64 // send time minus due time, ms
}

// plan builds a phase's request stream: n = rate × length Poisson
// arrivals, rescaled to span the phase exactly, over the tenant key spaces
// of index idx, which no other index shares. The seed draws the arrivals
// and the keys; the key spaces depend on idx alone, because key spaces
// drawn from the seed as well more than doubled the between-seed spread of
// the cache-miss latency.
func plan(seed uint64, idx int, rate float64, length time.Duration) (loadgen.Config, []loadgen.Request, error) {
	tenants := loadgen.DefaultTenants(serveTenants, serveKeys, serveZipf, doram.SchemeDORAM, serveTraceLen)
	for i := range tenants {
		tenants[i].Base.Seed += uint64(idx) * serveKeys
	}
	n := int(math.Round(rate * length.Seconds()))
	cfg := loadgen.Config{Seed: seed*31 + uint64(idx), Rate: rate, MaxRequests: max(n, 1), Tenants: tenants}
	reqs, err := loadgen.Plan(cfg)
	if err != nil {
		return cfg, nil, err
	}
	scale := float64(length) / float64(reqs[len(reqs)-1].At)
	for i := range reqs {
		reqs[i].At = time.Duration(float64(reqs[i].At) * scale)
	}
	return cfg, reqs, nil
}

// run sends every request at its due time, each on its own goroutine, and
// waits for all of them.
func (d *driver) run(reqs []loadgen.Request) *phase {
	p := &phase{reqs: reqs, out: make([]served, len(reqs)), wrong: make([]bool, len(reqs))}
	start := time.Now()
	var wg sync.WaitGroup
	for i, rq := range reqs {
		if wait := rq.At - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		d.mu.Lock()
		d.inFlight++
		if i == len(reqs)-1 {
			p.backlog = d.inFlight - 1
		}
		d.mu.Unlock()
		go func(i int, rq loadgen.Request) {
			defer wg.Done()
			p.out[i] = d.execute(start, rq)
			d.mu.Lock()
			d.inFlight--
			d.mu.Unlock()
		}(i, rq)
	}
	wg.Wait()
	for _, s := range p.out {
		p.late = append(p.late, ms(s.sent-s.req.At))
	}
	return p
}

// execute submits one spec, waits for its completion event unless the
// coordinator answered from its cache, and fetches the result bytes.
func (d *driver) execute(start time.Time, rq loadgen.Request) served {
	s := served{req: rq, sent: time.Since(start)}
	finish := func(err error) served {
		s.err, s.done = err, time.Since(start)
		return s
	}
	body, err := json.Marshal(rq.Spec)
	if err != nil {
		return finish(err)
	}
	for {
		t0 := time.Now()
		code, retryAfter, err := d.submit(body, &s.job)
		s.submit = time.Since(t0)
		if err != nil {
			return finish(err)
		}
		if code != http.StatusTooManyRequests {
			if code != http.StatusOK && code != http.StatusAccepted {
				return finish(fmt.Errorf("submit: HTTP %d", code))
			}
			break
		}
		if s.retries++; s.retries > 8 {
			return finish(errors.New("submit: 429 retries exhausted"))
		}
		time.Sleep(retryAfter)
	}
	switch {
	case s.job.State == simsvc.StateDone:
		s.hit = s.job.Node == "cache"
	case s.job.State.Terminal():
		return finish(fmt.Errorf("job %s %s: %s", s.job.ID, s.job.State, s.job.Error))
	default:
		d.mu.Lock()
		c := d.completionLocked(s.job.ID)
		d.mu.Unlock()
		select {
		case <-c.ch:
		case <-time.After(time.Minute):
			return finish(fmt.Errorf("job %s: no completion event", s.job.ID))
		}
		if c.state != simsvc.StateDone {
			return finish(fmt.Errorf("job %s %s", s.job.ID, c.state))
		}
	}
	t1 := time.Now()
	s.body, err = d.get("/v1/jobs/" + s.job.ID + "/result")
	s.result, s.size = time.Since(t1), len(s.body)
	return finish(err)
}

func (d *driver) submit(body []byte, st *cluster.JobStatus) (int, time.Duration, error) {
	resp, err := d.hc.Post(d.f.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, fmt.Errorf("submit: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		retry := 100 * time.Millisecond
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			retry = time.Duration(secs) * time.Second
		}
		return resp.StatusCode, retry, nil
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, st); err != nil {
			return 0, 0, fmt.Errorf("submit: decoding status: %w", err)
		}
	}
	return resp.StatusCode, 0, nil
}

func (d *driver) get(path string) ([]byte, error) {
	resp, err := d.hc.Get(d.f.url + path)
	if err != nil {
		return nil, fmt.Errorf("get %s: %w", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("get %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("get %s: HTTP %d", path, resp.StatusCode)
	}
	return data, nil
}

// latencies returns each request's latency in ms.
func (p *phase) latencies() []float64 {
	var out []float64
	for _, s := range p.out {
		out = append(out, ms(s.latency()))
	}
	return out
}

// makespan is the time from the phase's start to its last result.
func (p *phase) makespan() time.Duration {
	var last time.Duration
	for _, s := range p.out {
		last = max(last, s.done)
	}
	return last
}

// good counts requests that succeeded within serveLimit with a correct
// output.
func (p *phase) good() int {
	n := 0
	for i, s := range p.out {
		if s.ok() && s.latency() <= serveLimit && !p.wrong[i] {
			n++
		}
	}
	return n
}

// account adds the phase's requests to the report: a failed, refused,
// too-slow or wrong request is a failed operation. Run check first.
func (p *phase) account(r *report) {
	for i, s := range p.out {
		r.attempted++
		if !s.ok() {
			r.failed++
			r.fail("request %d (%s): %v", s.req.Index, s.req.Hash[:12], s.err)
		} else if s.latency() > serveLimit || p.wrong[i] {
			r.failed++
		}
	}
}

// check validates the phase's output: every result of one spec is the
// same bytes, a seeded sample re-simulated in-process gives those bytes,
// and the SLO report built from the results is complete and consistent.
// It marks the requests whose output a failed check covers as wrong.
func (p *phase) check(r *report, cfg loadgen.Config, seed uint64) {
	bodies := map[string][]byte{}
	badSpec := map[string]bool{}
	var hashes []string
	var outcomes []loadgen.Outcome
	for i, s := range p.out {
		o := loadgen.Outcome{Req: s.req, ScheduledAt: s.req.At, SentAt: s.sent, DoneAt: s.done, State: loadgen.OutcomeError, CacheHit: s.hit}
		if s.ok() {
			var res struct{ LatencyBreakdown *evtrace.Report }
			if err := json.Unmarshal(s.body, &res); err != nil {
				p.wrong[i] = true
				r.fail("request %d: result is not JSON: %v", s.req.Index, err)
			}
			o.State, o.Breakdown = loadgen.OutcomeDone, res.LatencyBreakdown
			if prev, ok := bodies[s.req.Hash]; !ok {
				bodies[s.req.Hash] = s.body
				hashes = append(hashes, s.req.Hash)
			} else if !bytes.Equal(prev, s.body) {
				badSpec[s.req.Hash] = true
				r.fail("spec %s served two different results", s.req.Hash[:12])
			}
		}
		outcomes = append(outcomes, o)
	}

	// The sim_slo section summarizes every request, so a wrong one makes
	// all of them wrong.
	rep := loadgen.BuildReport(cfg, p.reqs, outcomes, nil)
	slo := rep.SimSLO
	sloOK := false
	switch {
	case rep.Requests.Completed != len(p.reqs):
		r.fail("SLO report counts %d of %d requests completed", rep.Requests.Completed, len(p.reqs))
	case slo == nil:
		r.fail("SLO report has no sim_slo section")
	case slo.UniqueSpecs != len(hashes) || slo.Total.Requests != uint64(len(p.reqs)):
		r.fail("sim_slo covers %d specs and %d requests, want %d and %d", slo.UniqueSpecs, slo.Total.Requests, len(hashes), len(p.reqs))
	default:
		var sum, share float64
		for _, st := range slo.Stages {
			sum += st.Mean
			share += st.MeanShare
		}
		sloOK = math.Abs(sum-slo.Total.Mean) <= 1e-6*slo.Total.Mean && math.Abs(share-1) <= 1e-6
		if !sloOK {
			r.fail("sim_slo stages sum to %.3f (share %.6f), total mean %.3f", sum, share, slo.Total.Mean)
		}
	}

	rng := xrand.New(seed)
	for i := 0; i < serveResims && len(hashes) > 0; i++ {
		h := hashes[rng.Intn(len(hashes))]
		var spec doram.Params
		for _, rq := range p.reqs {
			if rq.Hash == h {
				spec = rq.Spec
				break
			}
		}
		res, err := doram.Simulate(spec.SimConfig())
		if err != nil {
			badSpec[h] = true
			r.fail("re-simulating %s: %v", h[:12], err)
			continue
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil || !bytes.Equal(buf.Bytes(), bodies[h]) {
			badSpec[h] = true
			r.fail("spec %s: served result differs from an in-process simulation", h[:12])
		}
	}
	for i, rq := range p.reqs {
		if !sloOK || badSpec[rq.Hash] {
			p.wrong[i] = true
		}
	}
}

// merge joins phases into one for their latency and failure figures.
func merge(ps []*phase) *phase {
	m := &phase{}
	for _, p := range ps {
		m.out = append(m.out, p.out...)
		m.wrong = append(m.wrong, p.wrong...)
	}
	return m
}

// timedStart starts a fleet and, when setups is not nil, records how long
// it took.
func timedStart(runSim simFunc, setups *[]time.Duration) (*fleet, error) {
	t0 := time.Now()
	f, err := startFleet(runSim)
	if err != nil {
		return nil, err
	}
	if setups != nil {
		*setups = append(*setups, time.Since(t0))
	}
	return f, nil
}

// timeSetUps starts and stops n fleets, recording each start.
func timeSetUps(n int, setups *[]time.Duration) error {
	for i := 0; i < n; i++ {
		f, err := timedStart(nil, setups)
		if err != nil {
			return err
		}
		f.stop()
	}
	return nil
}

// rounds is what a series of rounds served and measured.
type rounds struct {
	phases []*phase
	use    span      // consumption while the plans ran
	wait   []float64 // queue wait of each worker job, ms
	lag    []float64 // worker done → coordinator done per dispatched request, ms

	coalesced, redispatched, hedged float64
}

// runRounds runs rounds until length has passed, at least one. Round i
// uses the key spaces of plan index i on a fleet of its own, so its caches
// start empty and the results its workers retain are freed after it. Each
// round's output is checked.
func runRounds(r *report, e env, length time.Duration, runSim simFunc, setups *[]time.Duration) (*rounds, error) {
	rs := &rounds{}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < length; i++ {
		if err := rs.round(r, e, i, runSim, setups); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

func (rs *rounds) round(r *report, e env, idx int, runSim simFunc, setups *[]time.Duration) error {
	cfg, reqs, err := plan(e.seed, idx, serveRate, serveRoundLen)
	if err != nil {
		return err
	}
	f, err := timedStart(runSim, setups)
	if err != nil {
		return err
	}
	defer f.stop()
	d, err := newDriver(f)
	if err != nil {
		return err
	}
	defer d.close()
	start := takeUsage()
	p := d.run(reqs)
	rs.use = rs.use.add(since(start))

	wait, lag := jobTimes(d, p)
	rs.wait, rs.lag = append(rs.wait, wait...), append(rs.lag, lag...)
	for _, svc := range f.svcs {
		rs.coalesced += float64(svc.Registry().CounterValues()["simsvc.jobs.coalesced"])
	}
	rs.redispatched += f.counter("cluster.jobs.redispatched")
	rs.hedged += f.counter("cluster.jobs.hedged")
	p.check(r, cfg, e.seed+uint64(idx))
	p.account(r)
	for i := range p.out {
		p.out[i].body = nil // checked; later rounds need the memory
	}
	rs.phases = append(rs.phases, p)
	return nil
}

func measureServe(e env) (*report, error) {
	r := newReport()
	// Set-ups are timed before and after the rounds, so their median also
	// sees the host as it was at the end, and at each round's start.
	var setups []time.Duration
	if err := timeSetUps(serveSetUps/2, &setups); err != nil {
		return nil, err
	}
	rs, err := runRounds(r, e, e.seconds, nil, &setups)
	if err != nil {
		return nil, err
	}
	if err := timeSetUps(serveSetUps/2, &setups); err != nil {
		return nil, err
	}
	// A user of the recorded workload waits for all of it: a round's
	// latency runs to its last result, which the queued cache misses set.
	// The last completions land on the coordinator's 100 ms status poll,
	// so the median of the rounds moves in 100 ms steps; their mean does
	// not.
	var makespans []float64
	for _, p := range rs.phases {
		makespans = append(makespans, ms(p.makespan()))
	}
	all := merge(rs.phases)
	fillEndToEnd(r, setups, makespans, rs.use.alloc, int64(len(all.out)))
	r.metrics["latency_ms"] = mean(makespans)
	// Open-loop requests per wall second would only repeat the offered
	// rate: requests served per CPU second of the whole process (driver,
	// coordinator, workers and their simulations) is what a speed change
	// in any serving layer moves.
	r.metrics["throughput_per_s"] = float64(all.good()) / rs.use.cpu.Seconds()
	return r, nil
}

// ladderStep sustains one fixed rate for length on a fleet of its own.
func ladderStep(seed uint64, idx int, rate float64, length time.Duration) (*phase, error) {
	_, reqs, err := plan(seed, idx, rate, length)
	if err != nil {
		return nil, err
	}
	f, err := startFleet(nil)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	d, err := newDriver(f)
	if err != nil {
		return nil, err
	}
	defer d.close()
	return d.run(reqs), nil
}

// simTimer wraps the worker's simulation entry point with a wall clock.
type simTimer struct {
	mu   sync.Mutex
	runs []float64
}

func (t *simTimer) run(ctx context.Context, cfg doram.SimConfig) (*doram.SimResult, error) {
	t0 := time.Now()
	res, err := doram.SimulateContext(ctx, cfg)
	t.mu.Lock()
	t.runs = append(t.runs, ms(time.Since(t0)))
	t.mu.Unlock()
	return res, err
}

func traceServe(e env) (*report, error) {
	r := newReport()
	length := e.seconds * 3 / 10
	step := e.seconds * 15 / 100

	// Untraced rounds: the HTTP, cache and tail metrics and CPU use.
	plain, err := runRounds(r, e, length, nil, nil)
	if err != nil {
		return nil, err
	}
	nominal := merge(plain.phases)
	r.metrics["experiments.cpu_util"] = plain.use.cpuUtil()
	r.metrics["go.gc_cpu_pct"] = plain.use.gcPct()
	fillHTTP(r, nominal)
	r.metrics["loadgen.p50_ms"] = quantile(nominal.latencies(), 0.5)
	r.metrics["loadgen.p90_ms"] = quantile(nominal.latencies(), 0.9)
	r.metrics["loadgen.p99_ms"] = quantile(nominal.latencies(), 0.99)
	r.metrics["cluster.redispatched"] = plain.redispatched
	r.metrics["cluster.hedged"] = plain.hedged

	// The ladder probes capacity, so its requests do not count toward the
	// run's failures. Its first step, at the nominal rate, gives the load
	// driver's own figures.
	r.metrics["loadgen.max_rps"] = 0
	for i, rate := range serveLadder {
		p, err := ladderStep(e.seed, 1000+i, rate, step)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			r.metrics["loadgen.lateness_ms_p99"] = quantile(p.late, 0.99)
			r.metrics["loadgen.backlog_end"] = float64(p.backlog)
		}
		if !valid(p) {
			break
		}
		r.metrics["loadgen.max_rps"] = rate
	}

	// Traced: the same rounds on fleets whose workers time each
	// simulation, under the CPU profiler.
	timer := &simTimer{}
	var traced *rounds
	if err := profile(r, func() error {
		var err error
		traced, err = runRounds(r, e, length, timer.run, nil)
		return err
	}); err != nil {
		return nil, err
	}
	r.metrics["trace.overhead_ratio"] = mean(merge(traced.phases).latencies()) / mean(nominal.latencies())
	timer.mu.Lock()
	r.metrics["simsvc.run_ms_p50"] = quantile(timer.runs, 0.5)
	r.metrics["simsvc.run_ms_p99"] = quantile(timer.runs, 0.99)
	timer.mu.Unlock()
	r.metrics["simsvc.coalesced"] = traced.coalesced
	r.metrics["simsvc.queue_wait_ms_p99"] = quantile(traced.wait, 0.99)
	r.metrics["cluster.completion_lag_ms_p50"] = quantile(traced.lag, 0.5)
	r.metrics["cluster.completion_lag_ms_p99"] = quantile(traced.lag, 0.99)

	// One served spec with the simulator's metrics on: the model's counts.
	spec := traced.phases[0].reqs[0].Spec
	cfg := spec.SimConfig()
	cfg.Metrics = true
	res, err := doram.Simulate(cfg)
	if err != nil {
		return nil, err
	}
	if err := fillSimModel(r, res.Metrics, res.LatencyBreakdown); err != nil {
		return nil, err
	}
	cc := core.DefaultConfig(core.DORAM, spec.Benchmark)
	cc.TraceLen, cc.Seed = serveTraceLen, spec.Seed
	if err := timeCore(r, cc); err != nil {
		return nil, err
	}
	if err := fillComponents(r, ddr3(spec.Benchmark, e.seed)); err != nil {
		return nil, err
	}
	bypass(r, oramClientLayer)
	return r, nil
}

// valid reports whether a rate point met the latency limit at its 99th
// percentile without leaving a backlog.
func valid(p *phase) bool {
	return quantile(p.latencies(), 0.99) <= ms(serveLimit) && p.backlog <= serveMaxBacklog
}

// fillHTTP fills the HTTP-hop and cache metrics from a phase.
func fillHTTP(r *report, p *phase) {
	var submit, result, kb []float64
	hits := 0
	for _, s := range p.out {
		if !s.ok() {
			continue
		}
		submit = append(submit, ms(s.submit))
		result = append(result, ms(s.result))
		kb = append(kb, float64(s.size)/1024)
		if s.hit {
			hits++
		}
	}
	r.metrics["http.submit_ms_p50"] = quantile(submit, 0.5)
	r.metrics["http.submit_ms_p99"] = quantile(submit, 0.99)
	r.metrics["http.result_ms_p50"] = quantile(result, 0.5)
	r.metrics["http.result_kb_mean"] = mean(kb)
	r.metrics["cluster.cache_hit_ratio"] = float64(hits) / float64(len(p.out))
}

// jobTimes derives each worker job's queue wait and each dispatched
// request's completion lag (worker done → coordinator done) from the
// event stream, in ms.
func jobTimes(d *driver, p *phase) (wait, lag []float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, w := range d.workers {
		if !w.queued.IsZero() && !w.running.IsZero() {
			wait = append(wait, ms(w.running.Sub(w.queued)))
		}
	}
	for _, s := range p.out {
		if !s.ok() || s.hit || s.job.RemoteID == "" {
			continue
		}
		w, c := d.workers[s.job.Node+" "+s.job.RemoteID], d.jobs[s.job.ID]
		if w != nil && c != nil && !w.done.IsZero() {
			lag = append(lag, ms(c.at.Sub(w.done)))
		}
	}
	return wait, lag
}
