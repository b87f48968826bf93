// Package simsvc turns the one-shot simulator into a simulation job
// service: a bounded FIFO queue with backpressure, a worker pool running
// jobs through the public doram.SimulateContext path (with per-job
// timeout, panic isolation and cooperative cancellation), an LRU result
// cache keyed by the canonical spec hash, and single-flight coalescing of
// concurrent duplicate specs. The HTTP/JSON front end lives in http.go;
// cmd/doramd serves it and cmd/doramctl drives it.
//
// Job lifecycle (DESIGN.md §12):
//
//	queued ──▶ running ──▶ done
//	   │           │  └───▶ failed     (error, panic, timeout)
//	   └───────────┴──────▶ cancelled  (client request or drain)
//
// A submission whose canonical spec hash matches a cached result completes
// immediately (queued ▶ done, CacheHit). One matching a queued or running
// job attaches to it as a follower (Coalesced) and shares its fate.
package simsvc

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"time"

	"doram"
	"doram/internal/metrics"
	"doram/internal/obslog"
	"doram/internal/stats"
)

// State is a job's lifecycle state.
type State string

// Job states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Transition is one recorded state change. The history makes lifecycle
// transitions observable after the fact — a client polling a fast job
// still sees that it passed through queued and running.
type Transition struct {
	State State     `json:"state"`
	At    time.Time `json:"at"`
}

// ErrorKind classifies service errors for transport mapping.
type ErrorKind int

// Error kinds.
const (
	ErrInvalid   ErrorKind = iota // malformed or unrunnable spec
	ErrNotFound                   // unknown job id
	ErrQueueFull                  // backpressure: retry after RetryAfter
	ErrDraining                   // service is shutting down
	ErrConflict                   // operation invalid in the job's state
	ErrFailed                     // job reached the failed state
)

// Error is a service error carrying its kind and, for ErrQueueFull, a
// suggested retry delay derived from queue depth and observed job times.
type Error struct {
	Kind       ErrorKind
	Msg        string
	RetryAfter time.Duration
}

func (e *Error) Error() string { return e.Msg }

// Config tunes a Service. Zero values select the documented defaults.
type Config struct {
	// Workers is the worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the FIFO job queue; submissions beyond it are
	// rejected with ErrQueueFull. 0 means 64.
	QueueDepth int
	// CacheEntries sizes the LRU result cache; 0 means 128, negative
	// disables caching.
	CacheEntries int
	// JobTimeout bounds one simulation's wall time; 0 means 5 minutes.
	JobTimeout time.Duration
	// MaxTraceLen caps the admitted per-core trace length (an admission
	// control against queue-clogging jobs); 0 means 2,000,000.
	MaxTraceLen uint64
	// RetainJobs bounds how many terminal jobs stay queryable (status,
	// result, metrics) before the oldest are forgotten, FIFO. Without a
	// bound a sustained load run (doramload) grows the job table without
	// limit — each submission is a new job ID even on a cache hit. 0
	// means DefaultRetainJobs; negative retains everything (the historical
	// behaviour, for batch workloads that read results long after a
	// sweep). Non-terminal jobs are never evicted.
	RetainJobs int
	// Registry receives the service counters; nil builds a private one.
	// Only concurrency-safe instruments are registered, so the registry
	// may be dumped (GET /varz) while jobs run.
	Registry *metrics.Registry
	// RunSim overrides the simulation entry point; nil means
	// doram.SimulateContext. Tests (including the cluster chaos harness)
	// substitute it to make pool behaviour — blocking, panicking, slow
	// workers — deterministic.
	RunSim func(context.Context, doram.SimConfig) (*doram.SimResult, error)
	// Now overrides the clock behind job-history timestamps, run-duration
	// accounting, and the Retry-After estimate; nil means time.Now. Tests
	// pin it to assert on transition times instead of sleeping.
	Now func() time.Time
	// Logger receives structured job-lifecycle logs (log/slog); nil
	// discards them, preserving the historical silence of embedded
	// services in tests.
	Logger *slog.Logger
	// EventHistory sizes the event bus's replay ring (Last-Event-ID
	// resume window); 0 means DefaultEventHistory.
	EventHistory int
	// SSEHeartbeat is the /events comment-heartbeat cadence; 0 means
	// DefaultSSEHeartbeat.
	SSEHeartbeat time.Duration
	// After overrides the SSE heartbeat timer source; nil means
	// time.After. Tests fire heartbeats deterministically through it.
	After func(time.Duration) <-chan time.Time
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 128
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.MaxTraceLen == 0 {
		c.MaxTraceLen = 2_000_000
	}
	if c.RetainJobs == 0 {
		c.RetainJobs = DefaultRetainJobs
	}
	return c
}

// DefaultRetainJobs is the terminal-job retention bound when
// Config.RetainJobs is zero: large enough that any client polling at a
// sane cadence reads its results long before eviction, small enough that
// a multi-hour load run holds a bounded job table.
const DefaultRetainJobs = 4096

// Job is one submitted simulation. All mutable state is guarded by the
// owning service's lock; read it through Status / Result or wait on Done.
type Job struct {
	svc  *Service
	id   string
	spec doram.Params // canonical
	hash string

	state     State
	history   []Transition
	errMsg    string
	result    *doram.SimResult
	doc       []byte // result's API document, encoded once at publish
	cacheHit  bool
	coalesced bool

	leader    *Job   // non-nil on followers
	followers []*Job // on leaders
	placement Placement

	cancelRequested bool
	cancelRun       context.CancelFunc // set while running

	done chan struct{} // closed on terminal transition
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status returns a snapshot of the job.
func (j *Job) Status() JobStatus {
	j.svc.mu.Lock()
	defer j.svc.mu.Unlock()
	return j.statusLocked()
}

// JobStatus is the externally visible snapshot of a job.
type JobStatus struct {
	ID       string       `json:"id"`
	State    State        `json:"state"`
	SpecHash string       `json:"spec_hash"`
	Spec     doram.Params `json:"spec"`
	// CacheHit marks a job served from the result cache without
	// simulating; Coalesced one that attached to an identical in-flight
	// job (single-flight) and shares its outcome.
	CacheHit  bool         `json:"cache_hit,omitempty"`
	Coalesced bool         `json:"coalesced,omitempty"`
	Error     string       `json:"error,omitempty"`
	History   []Transition `json:"history"`
	Placement
}

// Placement says where a job's result came from. A service whose RunSim
// delegates to other machines (the cluster coordinator's fleet dispatcher)
// reports each run's placement through Place; a result-cache hit reports
// Node "cache"; a local run leaves it empty. Coalesced followers show
// their leader's placement.
type Placement struct {
	// Node is the worker running (or that ran) the job, or "cache".
	Node string `json:"node,omitempty"`
	// RemoteID is the job's id on that worker.
	RemoteID string `json:"remote_id,omitempty"`
	// Attempts counts the workers that accepted the job; Hedged marks one
	// that was also sent to a second worker to race a straggler.
	Attempts int  `json:"attempts,omitempty"`
	Hedged   bool `json:"hedged,omitempty"`
}

// jobKey is the context key under which RunSim's context carries its job.
type jobKey struct{}

// Place records the placement of the job whose RunSim received ctx. It is
// a no-op for a context that did not come from a service run.
func Place(ctx context.Context, p Placement) {
	job, ok := ctx.Value(jobKey{}).(*Job)
	if !ok {
		return
	}
	job.svc.mu.Lock()
	defer job.svc.mu.Unlock()
	job.placement = p
}

func (j *Job) statusLocked() JobStatus {
	st := JobStatus{
		ID:        j.id,
		State:     j.state,
		SpecHash:  j.hash,
		Spec:      j.spec,
		CacheHit:  j.cacheHit,
		Coalesced: j.coalesced,
		Error:     j.errMsg,
		History:   append([]Transition(nil), j.history...),
		Placement: j.placement,
	}
	if j.leader != nil {
		st.Placement = j.leader.placement
	}
	return st
}

// Service is the simulation job service.
type Service struct {
	cfg Config

	mu       sync.Mutex
	jobs     map[string]*Job
	inflight map[string]*Job // canonical spec hash -> queued/running leader
	// terminal is the FIFO of terminal job IDs backing RetainJobs
	// eviction; its head is the next job to be forgotten.
	terminal []string
	cache    *resultCache
	seq      uint64
	running  int
	draining bool
	ewmaSec  float64 // smoothed job wall time, drives Retry-After

	// runStart tracks when each in-flight run began; while the EWMA is
	// cold (no job has completed yet) the oldest run's elapsed time is
	// the best available lower bound on a job's duration.
	runStart map[*Job]time.Time

	queue      chan *Job
	wg         sync.WaitGroup
	baseCtx    context.Context
	baseCancel context.CancelFunc

	reg *metrics.Registry
	// Counters; all concurrency-safe (see Config.Registry).
	submitted, completed, failed, cancelled, rejected *metrics.SyncCounter
	cacheHits, cacheMisses, coalescedCtr              *metrics.SyncCounter
	simRuns, simPanics                                *metrics.SyncCounter

	// runSim is the simulation entry point; tests substitute it to make
	// pool behaviour (blocking, panicking) deterministic.
	runSim func(context.Context, doram.SimConfig) (*doram.SimResult, error)
	// now is the clock behind history timestamps and duration accounting;
	// time.Now unless Config.Now injected one.
	now func() time.Time

	logger *slog.Logger
	bus    *EventBus

	// stageHists accumulates cross-job per-stage latency histograms
	// (lifted from each finished job's evtrace attribution) plus the job
	// wall-time histogram; guarded by mu, exposed on GET /metrics.
	stageHists map[string]*stats.Histogram
	jobDur     *stats.Histogram // wall milliseconds per completed run
}

// New builds a service and starts its worker pool.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.New()
	}
	s := &Service{
		cfg:        cfg,
		jobs:       make(map[string]*Job),
		inflight:   make(map[string]*Job),
		cache:      newResultCache(cfg.CacheEntries),
		queue:      make(chan *Job, cfg.QueueDepth),
		runStart:   make(map[*Job]time.Time),
		reg:        reg,
		runSim:     doram.SimulateContext,
		now:        time.Now,
		logger:     obslog.Discard(),
		bus:        NewEventBus(cfg.EventHistory),
		stageHists: make(map[string]*stats.Histogram),
		jobDur:     stats.NewHistogram(jobDurationBoundsMs),
	}
	if cfg.RunSim != nil {
		s.runSim = cfg.RunSim
	}
	if cfg.Now != nil {
		s.now = cfg.Now
	}
	if cfg.Logger != nil {
		s.logger = cfg.Logger
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.submitted = reg.SyncCounter("simsvc.jobs.submitted")
	s.completed = reg.SyncCounter("simsvc.jobs.completed")
	s.failed = reg.SyncCounter("simsvc.jobs.failed")
	s.cancelled = reg.SyncCounter("simsvc.jobs.cancelled")
	s.rejected = reg.SyncCounter("simsvc.jobs.rejected")
	s.cacheHits = reg.SyncCounter("simsvc.cache.hits")
	s.cacheMisses = reg.SyncCounter("simsvc.cache.misses")
	s.coalescedCtr = reg.SyncCounter("simsvc.jobs.coalesced")
	s.simRuns = reg.SyncCounter("simsvc.sim.runs")
	s.simPanics = reg.SyncCounter("simsvc.sim.panics")
	reg.CounterFunc("simsvc.queue.depth", func() uint64 { return uint64(len(s.queue)) })
	reg.CounterFunc("simsvc.jobs.running", func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return uint64(s.running)
	})
	reg.CounterFunc("simsvc.cache.entries", func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return uint64(s.cache.len())
	})
	reg.CounterFunc("simsvc.retry.ewma_ms", func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return uint64(s.ewmaSec * 1000)
	})
	reg.CounterFunc("simsvc.retry.estimate_ms", func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return uint64(s.retryAfterLocked().Milliseconds())
	})
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Registry returns the service's metric registry (the /varz source).
func (s *Service) Registry() *metrics.Registry { return s.reg }

// Draining reports whether the service has begun shutting down.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Submit admits one job. The spec is canonicalized and validated; the
// returned job may already be terminal (cache hit). ErrQueueFull carries a
// Retry-After estimate; ErrDraining rejects submissions during shutdown.
func (s *Service) Submit(spec doram.Params) (*Job, error) {
	p := spec.Canonical()
	if err := p.Validate(); err != nil {
		return nil, &Error{Kind: ErrInvalid, Msg: err.Error()}
	}
	if p.TraceLen > s.cfg.MaxTraceLen {
		return nil, &Error{Kind: ErrInvalid,
			Msg: fmt.Sprintf("simsvc: trace_len %d above the service cap %d", p.TraceLen, s.cfg.MaxTraceLen)}
	}
	hash := p.Hash()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, &Error{Kind: ErrDraining, Msg: "simsvc: draining, not accepting jobs"}
	}
	s.submitted.Inc()

	if hit, ok := s.cache.get(hash); ok {
		job := s.newJobLocked(p, hash)
		job.cacheHit = true
		job.result, job.doc = hit.res, hit.doc
		job.placement.Node = "cache"
		s.cacheHits.Inc()
		s.completed.Inc()
		s.publishQueuedLocked(job)
		s.transitionLocked(job, StateDone)
		return job, nil
	}

	if leader := s.inflight[hash]; leader != nil && !leader.cancelRequested {
		job := s.newJobLocked(p, hash)
		job.coalesced = true
		job.leader = leader
		leader.followers = append(leader.followers, job)
		s.publishQueuedLocked(job)
		if leader.state == StateRunning {
			s.transitionLocked(job, StateRunning)
		}
		s.coalescedCtr.Inc()
		return job, nil
	}

	job := s.newJobLocked(p, hash)
	select {
	case s.queue <- job:
		s.inflight[hash] = job
		s.cacheMisses.Inc()
		s.publishQueuedLocked(job)
		return job, nil
	default:
		delete(s.jobs, job.id)
		s.rejected.Inc()
		return nil, &Error{Kind: ErrQueueFull,
			Msg:        fmt.Sprintf("%s (%d jobs)", queueFullMsg, s.cfg.QueueDepth),
			RetryAfter: s.retryAfterLocked()}
	}
}

// queueFullMsg opens the message of every backpressure rejection.
const queueFullMsg = "simsvc: queue full"

// IsQueueFull reports whether a rejection message — a SweepResponse's
// Errors entry — is backpressure, so the spec may be resubmitted.
func IsQueueFull(msg string) bool { return strings.HasPrefix(msg, queueFullMsg) }

// SubmitJSON admits one job-spec document (doram.ParamsFromJSON); a
// malformed spec is an ErrInvalid error.
func (s *Service) SubmitJSON(spec []byte) (*Job, error) {
	p, err := doram.ParamsFromJSON(spec)
	if err != nil {
		return nil, &Error{Kind: ErrInvalid, Msg: err.Error()}
	}
	return s.Submit(p)
}

// newJobLocked registers a fresh job in the queued state.
func (s *Service) newJobLocked(spec doram.Params, hash string) *Job {
	s.seq++
	job := &Job{
		svc:  s,
		id:   fmt.Sprintf("j-%08d", s.seq),
		spec: spec,
		hash: hash,
		done: make(chan struct{}),
	}
	job.state = StateQueued
	job.history = []Transition{{State: StateQueued, At: s.now()}}
	s.jobs[job.id] = job
	return job
}

// jobDurationBoundsMs are power-of-two wall-millisecond buckets for the
// per-run duration histogram, 1 ms to ~17 min before overflow.
var jobDurationBoundsMs = stats.PowerOfTwoBounds(20)

// Events returns the service's event bus — every job state transition and
// service lifecycle marker, consumed by the SSE endpoints and (in cluster
// mode) embedding daemons.
func (s *Service) Events() *EventBus { return s.bus }

// transitionLocked records a state change; terminal states close Done.
// Every transition is published on the event bus together with the load
// gauges at that instant.
func (s *Service) transitionLocked(job *Job, to State) {
	job.state = to
	job.history = append(job.history, Transition{State: to, At: s.now()})
	if to.Terminal() {
		close(job.done)
		s.retireLocked(job)
	}
	s.publishJobLocked(job, to)
	if to == StateFailed {
		s.logger.Warn("job failed",
			slog.String("job_id", job.id), slog.String("error", job.errMsg))
	}
}

// publishQueuedLocked announces a freshly accepted job on the event bus.
// Creation sets the queued state directly (newJobLocked), so it is not a
// transition; it is published only once the job is actually admitted —
// a queue-full rejection discards the job without an event.
func (s *Service) publishQueuedLocked(job *Job) {
	s.publishJobLocked(job, StateQueued)
}

func (s *Service) publishJobLocked(job *Job, st State) {
	s.bus.Publish(Event{
		Time:       s.now(),
		Kind:       EventJob,
		JobID:      job.id,
		State:      st,
		Error:      job.errMsg,
		CacheHit:   job.cacheHit,
		Coalesced:  job.coalesced,
		QueueDepth: len(s.queue),
		Running:    s.running,
		Completed:  s.completed.Value(),
	})
	s.logger.Debug("job state",
		slog.String("job_id", job.id), slog.String("state", string(st)))
}

// retireLocked enrolls a freshly terminal job in the retention FIFO and
// evicts beyond the bound. Each job reaches a terminal state exactly once
// (transitionLocked is guarded by Terminal checks at every call site), so
// the FIFO never holds duplicates; non-terminal jobs are never enrolled
// and so never evicted.
func (s *Service) retireLocked(job *Job) {
	if s.cfg.RetainJobs < 0 {
		return
	}
	s.terminal = append(s.terminal, job.id)
	for len(s.terminal) > s.cfg.RetainJobs {
		delete(s.jobs, s.terminal[0])
		s.terminal = s.terminal[1:]
	}
}

// finalizeLocked moves a job and its live followers to a terminal state.
// A done job carries its result and the result's document; every other
// state passes nil for both.
func (s *Service) finalizeLocked(job *Job, to State, res *doram.SimResult, doc []byte, errMsg string) {
	targets := append([]*Job{job}, job.followers...)
	for _, t := range targets {
		if t.state.Terminal() {
			continue // e.g. a follower cancelled individually
		}
		t.result, t.doc = res, doc
		t.errMsg = errMsg
		// Counters first so the published transition event's Completed
		// gauge already includes this job — a tailing client sees sweep
		// progress counts that agree with the event that advanced them.
		switch to {
		case StateDone:
			s.completed.Inc()
		case StateFailed:
			s.failed.Inc()
		case StateCancelled:
			s.cancelled.Inc()
		}
		s.transitionLocked(t, to)
	}
}

// retryAfterLocked estimates when queue capacity will free up: pending
// work over pool width at the smoothed job duration, clamped to [1s, 60s].
// While the EWMA is cold (nothing has completed yet) the oldest in-flight
// run's elapsed time stands in — a lower bound on a job's true duration,
// and already a far better signal than a flat guess when jobs run long.
func (s *Service) retryAfterLocked() time.Duration {
	per := s.ewmaSec
	if per <= 0 {
		for _, start := range s.runStart {
			if sec := s.now().Sub(start).Seconds(); sec > per {
				per = sec
			}
		}
	}
	if per <= 0 {
		per = 1
	}
	pending := len(s.queue) + s.running
	est := time.Duration(per*float64(pending)/float64(s.cfg.Workers)*float64(time.Second) + float64(time.Second-1))
	if est < time.Second {
		est = time.Second
	}
	if est > time.Minute {
		est = time.Minute
	}
	return est
}

func (s *Service) updateEWMALocked(d time.Duration) {
	const alpha = 0.3
	sec := d.Seconds()
	if s.ewmaSec == 0 {
		s.ewmaSec = sec
		return
	}
	s.ewmaSec = alpha*sec + (1-alpha)*s.ewmaSec
}

func (s *Service) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// runJob executes one dequeued leader end to end.
func (s *Service) runJob(job *Job) {
	s.mu.Lock()
	if job.state.Terminal() { // cancelled while queued
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
	// The job goes on top of the timer's context: a stopped timer can
	// linger in the runtime's timer heap, and must not keep the job (and
	// through it the whole service) reachable.
	ctx = context.WithValue(ctx, jobKey{}, job)
	job.cancelRun = cancel
	s.transitionLocked(job, StateRunning)
	for _, f := range job.followers {
		if !f.state.Terminal() {
			s.transitionLocked(f, StateRunning)
		}
	}
	s.running++
	start := s.now()
	s.runStart[job] = start
	s.mu.Unlock()

	s.simRuns.Inc()
	res, err := s.safeRun(ctx, job.spec.SimConfig())
	cancel()
	dur := s.now().Sub(start)
	// The result's document is encoded once, here, and served from then
	// on. A result that cannot be encoded could never be served, so its
	// job fails rather than finishing "done" behind a 500 on every GET.
	var doc []byte
	if err == nil {
		if doc, err = encodeJSON(res); err != nil {
			err = fmt.Errorf("simsvc: encoding result: %w", err)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	delete(s.runStart, job)
	job.cancelRun = nil
	if s.inflight[job.hash] == job {
		delete(s.inflight, job.hash)
	}
	switch {
	case err == nil:
		s.cache.put(job.hash, res, doc)
		s.updateEWMALocked(dur)
		s.foldStageHistsLocked(res, dur)
		s.finalizeLocked(job, StateDone, res, doc, "")
	case errors.Is(err, context.Canceled):
		s.finalizeLocked(job, StateCancelled, nil, nil, "simsvc: cancelled mid-run")
	case errors.Is(err, context.DeadlineExceeded):
		s.finalizeLocked(job, StateFailed, nil, nil,
			fmt.Sprintf("simsvc: timed out after %s", s.cfg.JobTimeout))
	default:
		s.finalizeLocked(job, StateFailed, nil, nil, err.Error())
	}
}

// stageMeanBounds are power-of-two cycle buckets for the per-stage mean
// histograms, mirroring evtrace's breakdown range (1 cycle to ~134M).
var stageMeanBounds = stats.PowerOfTwoBounds(28)

// foldStageHistsLocked accumulates one finished run into the serving-level
// latency histograms: wall time always, and — when the job's spec enabled
// tracing — the full per-stage evtrace attribution histograms, merged
// bucket-wise. This is what makes execution interference scrapeable at
// GET /metrics instead of only dumpable per job: every traced job's stage
// latencies aggregate into one continuously exported distribution.
//
// A delegated run's result arrives decoded from JSON, which carries the
// attribution report but not the per-access histograms (Trace); such a
// run contributes one sample per stage, its mean, to the
// simsvc.stage.<kind>.<stage>.mean_cycles histograms instead.
func (s *Service) foldStageHistsLocked(res *doram.SimResult, dur time.Duration) {
	s.jobDur.Observe(uint64(dur.Milliseconds()))
	if res == nil {
		return
	}
	if res.Trace == nil {
		if res.LatencyBreakdown == nil {
			return
		}
		for _, kb := range res.LatencyBreakdown.Kinds {
			s.observeStageMeanLocked(kb.Kind, "total", kb.Total.Mean)
			for _, st := range kb.Stages {
				s.observeStageMeanLocked(kb.Kind, st.Stage, st.Mean)
			}
		}
		return
	}
	for key, h := range res.Trace.StageHists {
		name := "simsvc.stage." + strings.ReplaceAll(key, "/", ".") + ".cycles"
		dst := s.stageHists[name]
		if dst == nil {
			dst = stats.NewHistogram(h.Bounds())
			s.stageHists[name] = dst
		}
		if err := dst.MergeFrom(h); err != nil {
			s.logger.Warn("stage histogram merge failed",
				slog.String("stage", key), slog.String("error", err.Error()))
		}
	}
}

func (s *Service) observeStageMeanLocked(kind, stage string, mean float64) {
	name := "simsvc.stage." + kind + "." + stage + ".mean_cycles"
	h := s.stageHists[name]
	if h == nil {
		h = stats.NewHistogram(stageMeanBounds)
		s.stageHists[name] = h
	}
	h.Observe(uint64(mean + 0.5))
}

// dump snapshots the registry plus the serving-level histograms (job wall
// time, per-stage latency) that live outside the registry. The /varz and
// /metrics handlers both serve it.
func (s *Service) dump() *metrics.Dump {
	d := s.reg.Dump()
	s.mu.Lock()
	defer s.mu.Unlock()
	if d.Histograms == nil {
		d.Histograms = make(map[string]metrics.HistogramDump, len(s.stageHists)+1)
	}
	d.Histograms["simsvc.job.duration_ms"] = metrics.NewHistogramDump(s.jobDur)
	for name, h := range s.stageHists {
		d.Histograms[name] = metrics.NewHistogramDump(h)
	}
	return d
}

// safeRun isolates a panicking simulation: the job fails, the worker (and
// server) survive.
func (s *Service) safeRun(ctx context.Context, cfg doram.SimConfig) (res *doram.SimResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.simPanics.Inc()
			res, err = nil, fmt.Errorf("simsvc: simulation panicked: %v", r)
		}
	}()
	return s.runSim(ctx, cfg)
}

// Cancel requests cancellation of a job. Queued jobs cancel immediately;
// running jobs abort cooperatively within a few thousand simulated loop
// iterations. Cancelling a coalesced follower detaches only that follower;
// cancelling a leader takes its followers with it (they subscribed to a
// simulation that will now never produce a result). Terminal jobs are
// left untouched (idempotent success).
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return &Error{Kind: ErrNotFound, Msg: fmt.Sprintf("simsvc: unknown job %q", id)}
	}
	if job.state.Terminal() {
		return nil
	}
	job.cancelRequested = true
	switch {
	case job.leader != nil: // follower: detach quietly
		s.finalizeLocked(job, StateCancelled, nil, nil, "simsvc: cancelled by client")
	case job.cancelRun != nil: // running leader: worker finalizes
		job.cancelRun()
	default: // queued leader
		if s.inflight[job.hash] == job {
			delete(s.inflight, job.hash)
		}
		s.finalizeLocked(job, StateCancelled, nil, nil, "simsvc: cancelled by client")
	}
	return nil
}

// Status returns a job snapshot.
func (s *Service) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, &Error{Kind: ErrNotFound, Msg: fmt.Sprintf("simsvc: unknown job %q", id)}
	}
	return job.statusLocked(), nil
}

// Result returns a finished job's result. Non-terminal jobs yield
// ErrConflict ("not done yet"), failed ones ErrFailed, cancelled ones
// ErrConflict.
func (s *Service) Result(id string) (*doram.SimResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, err := s.doneJobLocked(id)
	if err != nil {
		return nil, err
	}
	return job.result, nil
}

// ResultJSON returns a finished job's result document, the bytes
// GET /v1/jobs/{id}/result serves, with Result's errors. The document was
// encoded once when the result was published; the slice is shared by every
// job holding that result and by the result cache, so it is read-only.
func (s *Service) ResultJSON(id string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, err := s.doneJobLocked(id)
	if err != nil {
		return nil, err
	}
	return job.doc, nil
}

// doneJobLocked returns a done job, or the error Result reports for it.
func (s *Service) doneJobLocked(id string) (*Job, error) {
	job, ok := s.jobs[id]
	if !ok {
		return nil, &Error{Kind: ErrNotFound, Msg: fmt.Sprintf("simsvc: unknown job %q", id)}
	}
	switch job.state {
	case StateDone:
		return job, nil
	case StateFailed:
		return nil, &Error{Kind: ErrFailed, Msg: job.errMsg}
	default:
		return nil, &Error{Kind: ErrConflict,
			Msg: fmt.Sprintf("simsvc: job %s is %s, result not available", id, job.state)}
	}
}

// Metrics returns a finished job's metric dump, if its spec enabled the
// observability subsystem.
func (s *Service) Metrics(id string) (*doram.MetricsDump, error) {
	res, err := s.Result(id)
	if err != nil {
		return nil, err
	}
	if res.Metrics == nil {
		return nil, &Error{Kind: ErrNotFound,
			Msg: fmt.Sprintf("simsvc: job %s did not enable metrics (set \"metrics\": true in the spec)", id)}
	}
	return res.Metrics, nil
}

// Close drains the service: new submissions are rejected, queued jobs are
// cancelled, and running jobs get until ctx's deadline to finish before
// being aborted cooperatively. It returns nil on a clean drain and the
// context's error if running jobs had to be aborted.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("simsvc: already closed")
	}
	s.draining = true
	s.logger.Info("draining")
	s.bus.Publish(Event{Time: s.now(), Kind: EventService, Message: "draining",
		QueueDepth: len(s.queue), Running: s.running, Completed: s.completed.Value()})
	for _, job := range s.jobs {
		if job.state == StateQueued && job.leader == nil {
			if s.inflight[job.hash] == job {
				delete(s.inflight, job.hash)
			}
			s.finalizeLocked(job, StateCancelled, nil, nil, "simsvc: server draining")
		}
	}
	close(s.queue)
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		s.bus.Close() // after the last worker's terminal events published
		return nil
	case <-ctx.Done():
		s.baseCancel() // abort in-flight simulations; they stop within ~ms
		<-drained
		s.bus.Close()
		return ctx.Err()
	}
}
