package cluster

import (
	"context"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"doram/internal/metrics"
	"doram/internal/obslog"
	"doram/internal/simsvc"
)

// CoordinatorConfig tunes a Coordinator. Zero values select the
// documented defaults.
type CoordinatorConfig struct {
	// HeartbeatInterval is the cadence workers are told to heartbeat at;
	// 0 means 1s.
	HeartbeatInterval time.Duration
	// NodeTimeout is the heartbeat silence after which a worker is
	// declared dead and the jobs it holds re-dispatched; 0 means
	// 5×HeartbeatInterval.
	NodeTimeout time.Duration
	// StepInterval is the cadence of heartbeat expiry and of each
	// dispatched job's status poll; 0 means 100ms. With EventFanIn the
	// poll is only the fallback: a dispatch wakes on its worker job's
	// terminal event.
	StepInterval time.Duration
	// RequestTimeout bounds each request to a worker; 0 means 10s.
	RequestTimeout time.Duration
	// HedgeAfter is how long a dispatched job may sit non-terminal on one
	// worker before a hedge is sent to the next ring node; 0 means 30s,
	// negative disables hedging.
	HedgeAfter time.Duration

	// Circuit breaker: BreakerThreshold consecutive transport failures
	// eject a worker from dispatch; after BreakerCooldown it half-opens
	// and BreakerProbes consecutive successes re-admit it. Zeros mean
	// 3 failures, 5s, 2 probes.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	BreakerProbes    int

	// Transport overrides the HTTP transport used to reach workers (the
	// deterministic-test injection point); nil means the default.
	Transport http.RoundTripper
	// Logger receives structured serving-plane logs: membership and
	// failover events at Info, and the job service's own lines. Nil
	// discards them.
	Logger *slog.Logger

	// EventFanIn opens a standing /events stream to every live worker,
	// republishes its events (stamped with the worker id) on the
	// coordinator's bus, and wakes the dispatch waiting on each worker job
	// that ends. Off by default: the standing requests are visible to
	// injected transports, so deterministic tests must opt in.
	EventFanIn bool

	// Service configures the job service the coordinator runs on: queue
	// depth, result cache, job timeout, trace cap, retention, registry,
	// and the event bus and SSE settings. Its Workers and RunSim are the
	// coordinator's own (see dispatchPool); a nil Logger means Logger.
	Service simsvc.Config
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	setDefault(&c.HeartbeatInterval, time.Second)
	setDefault(&c.NodeTimeout, 5*c.HeartbeatInterval)
	setDefault(&c.StepInterval, 100*time.Millisecond)
	setDefault(&c.RequestTimeout, 10*time.Second)
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = obslog.Discard()
	}
	if c.Service.Logger == nil {
		c.Service.Logger = c.Logger
	}
	if c.Service.Registry == nil {
		c.Service.Registry = metrics.New()
	}
	return c
}

// setDefault replaces a non-positive setting with its default.
func setDefault(v *time.Duration, def time.Duration) {
	if *v <= 0 {
		*v = def
	}
}

// dispatchPool is the coordinator service's worker-pool size: how many
// jobs can be out on the fleet at once. A dispatch goroutine spends its
// life waiting on worker round trips and poll ticks, so the pool is sized
// for concurrency, not for CPUs: GOMAXPROCS would queue each job behind
// other jobs' poll waits, while a pool as large as the fleet could ever
// need (thousands) costs milliseconds of goroutine starts per coordinator.
const dispatchPool = 64

// ringReplicas is the number of virtual ring points per worker.
const ringReplicas = 64

// node is one registered worker.
type node struct {
	id       string // the worker's advertised base URL — identity and address
	alive    bool
	lastBeat time.Time
	joinedAt time.Time
	breaker  *breaker
	stopTail context.CancelFunc // ends the node's event fan-in, if any
}

// JobStatus is the coordinator's job snapshot: the simsvc status, whose
// Placement says where the job ran ("cache" for a coordinator cache hit).
type JobStatus = simsvc.JobStatus

// NodeStatus is one worker's membership snapshot.
type NodeStatus struct {
	ID            string    `json:"id"`
	Alive         bool      `json:"alive"`
	Breaker       string    `json:"breaker"`
	BreakerTrips  int       `json:"breaker_trips"`
	LastHeartbeat time.Time `json:"last_heartbeat"`
	JoinedAt      time.Time `json:"joined_at"`
}

// Coordinator is the cluster front door: a simsvc job service whose
// simulations run on a fleet of workers. It owns membership, routes each
// job to its consistent-hash owner, and rides out worker failures by
// re-dispatching and hedging.
type Coordinator struct {
	cfg CoordinatorConfig
	svc *simsvc.Service
	hc  *http.Client
	now func() time.Time // test hook; time.Now in production

	mu    sync.Mutex
	nodes map[string]*node
	ring  *ring

	// Event fan-in: each tail runs under tailCtx until its node dies;
	// stopTails ends them all at Shutdown.
	tailCtx   context.Context
	stopTails context.CancelFunc
	tails     sync.WaitGroup

	// Completion wake-ups (fan-in only): each live attempt and the wake
	// channel of the dispatch holding it. Keyed by node as well as worker
	// job id: ids such as j-00000001 repeat across workers, and across a
	// worker's restarts, which re-join as a new node.
	waitMu  sync.Mutex
	waiters map[waitKey]waiter

	// Counters, in the registry shared with the service.
	dispatched, redispatched, hedgesSent, hedgeWins  *metrics.SyncCounter
	nodeJoins, nodeDeaths, breakerTrips, proxyErrors *metrics.SyncCounter
}

// NewCoordinator builds a coordinator and its job service. Call Run to
// start heartbeat expiry, and serve Handler for the HTTP surface.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	cfg = cfg.withDefaults()
	reg := cfg.Service.Registry
	c := &Coordinator{
		cfg:     cfg,
		hc:      &http.Client{Transport: cfg.Transport},
		now:     time.Now,
		nodes:   make(map[string]*node),
		ring:    newRing(ringReplicas),
		waiters: make(map[waitKey]waiter),
	}
	c.tailCtx, c.stopTails = context.WithCancel(context.Background())
	c.dispatched = reg.SyncCounter("cluster.jobs.dispatched")
	c.redispatched = reg.SyncCounter("cluster.jobs.redispatched")
	c.hedgesSent = reg.SyncCounter("cluster.jobs.hedged")
	c.hedgeWins = reg.SyncCounter("cluster.hedge.wins")
	c.nodeJoins = reg.SyncCounter("cluster.nodes.joined")
	c.nodeDeaths = reg.SyncCounter("cluster.nodes.dead")
	c.breakerTrips = reg.SyncCounter("cluster.breaker.opened")
	c.proxyErrors = reg.SyncCounter("cluster.proxy.errors")
	reg.CounterFunc("cluster.nodes.alive", func() uint64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return uint64(c.ring.size())
	})
	svcCfg := cfg.Service
	svcCfg.Workers = dispatchPool
	svcCfg.RunSim = c.runSim
	c.svc = simsvc.New(svcCfg)
	return c
}

// Service returns the job service behind the coordinator: submissions,
// status, results, cancellation, events, cache snapshots and drain.
func (c *Coordinator) Service() *simsvc.Service { return c.svc }

// Registry returns the metric registry shared with the service.
func (c *Coordinator) Registry() *metrics.Registry { return c.svc.Registry() }

// Submit admits one raw job-spec document, as POST /v1/jobs does.
func (c *Coordinator) Submit(raw []byte) (JobStatus, error) {
	job, err := c.svc.SubmitJSON(raw)
	if err != nil {
		return JobStatus{}, err
	}
	return job.Status(), nil
}

// Status returns a job snapshot.
func (c *Coordinator) Status(id string) (JobStatus, error) { return c.svc.Status(id) }

// Result returns a finished job's result document, byte for byte what
// GET /v1/jobs/{id}/result serves. The slice is the service's published
// document, shared with every reader of that result: it is read-only.
func (c *Coordinator) Result(id string) ([]byte, error) { return c.svc.ResultJSON(id) }

// Run expires workers whose heartbeats have stopped, every StepInterval,
// until ctx ends.
func (c *Coordinator) Run(ctx context.Context) {
	t := time.NewTicker(c.cfg.StepInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.expireNodes(c.now())
		}
	}
}

// Shutdown stops every fan-in tailer and closes the job service, aborting
// any dispatch still in flight (each forwards a cancel to its worker).
// Drain the service first (Service().Close) to let running jobs finish.
func (c *Coordinator) Shutdown() {
	c.mu.Lock()
	c.stopTails()
	c.mu.Unlock()
	c.tails.Wait()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.svc.Close(ctx) // already closed after a drain; nothing to report
}

// join registers (or re-registers) a worker and returns the heartbeat
// interval it should use. A dead or unknown node gets a fresh breaker —
// rejoin is the explicit re-admission path after a heartbeat death.
func (c *Coordinator) join(id string, now time.Time) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.nodes[id]
	if n == nil || !n.alive {
		n = &node{
			id:       id,
			alive:    true,
			joinedAt: now,
			breaker:  newBreaker(c.cfg.BreakerThreshold, c.cfg.BreakerCooldown, c.cfg.BreakerProbes, c.now),
		}
		c.nodes[id] = n
		c.ring.add(id)
		c.nodeJoins.Inc()
		c.startTailLocked(n)
		c.cfg.Logger.Info("worker joined", slog.String("node", id), slog.Int("alive", c.ring.size()))
	}
	n.lastBeat = now
	return c.cfg.HeartbeatInterval
}

// heartbeat refreshes a worker's liveness; false means the worker is
// unknown (or was declared dead) and must re-join.
func (c *Coordinator) heartbeat(id string, now time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.nodes[id]
	if n == nil || !n.alive {
		return false
	}
	n.lastBeat = now
	return true
}

// leave removes a worker gracefully; the jobs it holds re-dispatch.
func (c *Coordinator) leave(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.nodes[id]; n != nil && n.alive {
		c.markDeadLocked(n, "leave")
	}
}

// expireNodes declares workers dead after NodeTimeout of heartbeat
// silence.
func (c *Coordinator) expireNodes(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		if n.alive && now.Sub(n.lastBeat) > c.cfg.NodeTimeout {
			c.markDeadLocked(n, "heartbeat timeout")
		}
	}
}

// markDeadLocked ejects a node from the ring. Each dispatch holding a job
// on it notices at its next poll and re-dispatches (dispatch.poll).
func (c *Coordinator) markDeadLocked(n *node, why string) {
	n.alive = false
	c.ring.remove(n.id)
	c.nodeDeaths.Inc()
	if n.stopTail != nil {
		n.stopTail()
	}
	c.cfg.Logger.Info("worker dead", slog.String("node", n.id), slog.String("why", why), slog.Int("alive", c.ring.size()))
}

// Nodes returns the membership snapshot, alive nodes first, each sorted
// by id.
func (c *Coordinator) Nodes() []NodeStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]NodeStatus, 0, len(c.nodes))
	for _, n := range c.nodes {
		out = append(out, NodeStatus{
			ID:            n.id,
			Alive:         n.alive,
			Breaker:       n.breaker.currentState().String(),
			BreakerTrips:  n.breaker.tripCount(),
			LastHeartbeat: n.lastBeat,
			JoinedAt:      n.joinedAt,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Alive != out[j].Alive {
			return out[i].Alive
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Worker stream fan-in: with EventFanIn set, each live worker's /events
// stream is tailed and every event republished, stamped with the worker's
// id, on the coordinator service's own bus. One stream then shows both
// the cluster-level job lifecycle (Node empty) and the per-worker detail
// behind it. A worker job's terminal event also wakes the dispatch
// waiting on it, which then polls the job instead of waiting out
// StepInterval.

// tailReconnect is the delay between fan-in reconnect attempts; the
// Last-Event-ID cursor plus the worker's replay ring make the gap
// lossless as long as the outage stays under the ring size.
const tailReconnect = time.Second

// startTailLocked begins fanning in a node's event stream until the node
// dies or the coordinator shuts down. No-op unless EventFanIn is set —
// fan-in keeps a standing request per worker, which deterministic tests
// (and their transport request counts) must not see unless they asked.
func (c *Coordinator) startTailLocked(n *node) {
	if !c.cfg.EventFanIn || c.tailCtx.Err() != nil {
		return
	}
	ctx, cancel := context.WithCancel(c.tailCtx)
	n.stopTail = cancel
	c.tails.Add(1)
	go func() {
		defer c.tails.Done()
		c.tailWorker(ctx, n)
	}()
}

// tailWorker keeps one worker's /events stream open until cancelled,
// reconnecting with the last seen cursor so events survive brief outages.
// It deliberately bypasses doNode: a standing stream must not feed the
// dispatch circuit breaker or count as proxy traffic.
func (c *Coordinator) tailWorker(ctx context.Context, n *node) {
	var cursor uint64
	for ctx.Err() == nil {
		err := simsvc.FollowEvents(ctx, c.hc, n.id, &cursor, func(ev simsvc.Event) bool {
			// Wake before republishing, so a subscriber that has seen a
			// terminal event knows its dispatch was signalled.
			if ev.Kind == simsvc.EventJob && ev.State.Terminal() {
				c.wake(n, ev.JobID, ev.State == simsvc.StateDone)
			}
			// Republish under this bus's sequence space. The gauges stay
			// worker-local — they describe the originating node's load.
			ev.Node = n.id
			c.svc.Events().Publish(ev)
			return true
		})
		if ctx.Err() == nil {
			c.cfg.Logger.Debug("fan-in stream ended",
				slog.String("node", n.id), slog.String("error", err.Error()))
		}
		sleep(ctx, tailReconnect)
	}
}
