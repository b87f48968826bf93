package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"slices"
	"time"

	"doram"
	"doram/internal/retry"
	"doram/internal/simsvc"
)

// maxAttempts bounds how many workers may accept (and then lose) one job
// before it is failed.
const maxAttempts = 8

// attempt is one acceptance of a job by one worker.
type attempt struct {
	node     *node
	remoteID string
	at       time.Time // when the worker accepted
}

// dispatch carries one job through the fleet. It runs on the service's
// worker goroutine for that job, so only the membership it reads (node
// liveness, breakers) is shared.
type dispatch struct {
	c        *Coordinator
	ctx      context.Context
	body     []byte     // canonical spec JSON, the forwarded payload
	hash     string     // canonical spec hash, the ring key
	live     []*attempt // live[0] is the primary, live[1] a hedge
	attempts int        // worker acceptances consumed
	hedged   bool       // a hedge was ever sent
	// wake receives a live attempt's terminal worker event (EventFanIn
	// only; nil otherwise). One slot: the poll it triggers reads every
	// live attempt.
	wake chan struct{}
}

// runSim is the service's RunSim: it runs one simulation on the fleet.
// The spec goes to its ring owner (waiting out 429s there, to keep the
// owner's result cache warm), is polled when its worker's fanned-in
// terminal event wakes the dispatch and otherwise every StepInterval,
// hedged on the next ring node after HedgeAfter, and re-dispatched when
// its worker dies, drains or forgets it. Simulations are deterministic in
// the canonical spec, so the first attempt to finish is the answer. Its
// result JSON decodes into the SimResult the service caches and serves;
// re-encoding reproduces the worker's bytes (TestResultJSONRelayIsExact
// pins that).
func (c *Coordinator) runSim(ctx context.Context, cfg doram.SimConfig) (*doram.SimResult, error) {
	p, err := doram.ParamsFromSimConfig(cfg)
	if err != nil {
		return nil, err
	}
	body, _ := p.MarshalJSON() // canonical; a Params always encodes (see Params.Hash)
	d := &dispatch{c: c, ctx: ctx, body: body, hash: p.Hash()}
	if c.cfg.EventFanIn {
		d.wake = make(chan struct{}, 1)
	}
	res, err := d.run()
	for _, att := range d.live { // lost the race, or the job ended: moot
		d.unwatch(att)
		go c.doNode(att.node, http.MethodPost, "/v1/jobs/"+att.remoteID+"/cancel", nil)
	}
	return res, err
}

// run drives the job until a worker produces its result, the job fails,
// or ctx ends.
func (d *dispatch) run() (*doram.SimResult, error) {
	c := d.c
	for {
		wait := c.cfg.StepInterval
		switch {
		case len(d.live) == 0:
			if d.attempts >= maxAttempts {
				return nil, fmt.Errorf("cluster: giving up after %d workers accepted and lost the job", d.attempts)
			}
			res, retryIn, err := d.offer("")
			if res != nil || err != nil {
				return res, err
			}
			if len(d.live) == 0 {
				wait = retryIn
			}
		case len(d.live) == 1 && c.cfg.HedgeAfter >= 0 && d.attempts < maxAttempts &&
			c.now().Sub(d.live[0].at) >= c.cfg.HedgeAfter:
			if res, _, err := d.offer(d.live[0].node.id); res != nil || err != nil {
				return res, err
			}
		}
		// With no live attempt the wait is a re-offer backoff, which no
		// wake-up cuts short.
		var wake <-chan struct{}
		if len(d.live) > 0 {
			wake = d.wake
		}
		if !sleepOr(d.ctx, wait, wake) {
			return nil, d.ctx.Err()
		}
		for _, att := range slices.Clone(d.live) {
			if res, err := d.poll(att); res != nil || err != nil {
				return res, err
			}
		}
	}
}

// sleep waits for d or until ctx ends, reporting whether the wait ran out.
func sleep(ctx context.Context, d time.Duration) bool { return sleepOr(ctx, d, nil) }

// sleepOr waits for d, a receive on wake (nil never fires) or the end of
// ctx, reporting false only if ctx ended.
func sleepOr(ctx context.Context, d time.Duration, wake <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
	case <-wake:
	}
	return true
}

// offer sends the job to workers in ring-preference order, skipping the
// excluded node (a hedge's primary), until one accepts. A worker answering
// from its own result cache accepts the job already done, and its result
// is fetched straight away. When nobody accepts, offer returns how long
// to wait before the next try.
func (d *dispatch) offer(exclude string) (*doram.SimResult, time.Duration, error) {
	c := d.c
	for _, n := range c.candidates(d.hash, exclude) {
		code, data, hdr, err := c.doNode(n, http.MethodPost, "/v1/jobs", d.body)
		switch {
		case err != nil || code >= 500:
			continue // unreachable (the breaker counted it) or sick: next node
		case code == http.StatusTooManyRequests:
			// The owner is saturated. Wait for it rather than spilling to
			// another node: affinity keeps its result cache effective, and
			// its Retry-After already prices the queue.
			return nil, retry.Jitter(retry.After(hdr, 2*time.Second), 0.75, 1.25, rand.Float64()), nil
		case code != http.StatusAccepted:
			// The spec itself is unacceptable (e.g. above the worker's
			// trace cap). Deterministic, so no retry.
			return nil, 0, fmt.Errorf("cluster: worker %s rejected the job: %s", n.id, retry.ErrorMessage(code, data))
		}
		var st simsvc.JobStatus
		if err := json.Unmarshal(data, &st); err != nil || st.ID == "" {
			c.cfg.Logger.Info("undecodable acceptance", slog.String("node", n.id))
			continue
		}
		att := &attempt{node: n, remoteID: st.ID, at: c.now()}
		d.accept(att)
		if st.State == simsvc.StateDone {
			res, err := d.fetch(att)
			return res, 0, err
		}
		return nil, 0, nil
	}
	return nil, pendingBackoff.Delay(d.attempts, rand.Float64()), nil
}

// pendingBackoff spaces re-offers of a job no worker accepted: 250ms
// doubling per consumed attempt, capped at 5s, jittered by ±25% so
// synchronized retries spread out.
var pendingBackoff = retry.Backoff{Base: 250 * time.Millisecond, Cap: 5 * time.Second, Lo: 0.75, Hi: 1.25}

// accept installs a worker's acceptance as the primary attempt, or as a
// hedge beside a live primary.
func (d *dispatch) accept(att *attempt) {
	c := d.c
	d.attempts++
	c.dispatched.Inc()
	switch {
	case len(d.live) > 0:
		d.hedged = true
		c.hedgesSent.Inc()
		c.cfg.Logger.Info("spec hedged", slog.String("spec", d.hash), slog.String("node", att.node.id),
			slog.Duration("after", att.at.Sub(d.live[0].at)), slog.String("primary", d.live[0].node.id))
	case d.attempts > 1:
		c.cfg.Logger.Info("spec re-dispatched", slog.String("spec", d.hash), slog.String("node", att.node.id),
			slog.Int("attempt", d.attempts))
	}
	d.live = append(d.live, att)
	d.watch(att)
	d.place(d.live[0])
}

// watch registers a live attempt for its worker's terminal event (fan-in
// only). It also wakes the dispatch once: the event may have fanned in
// before the registration, and the poll that follows catches it.
func (d *dispatch) watch(att *attempt) {
	if d.wake == nil {
		return
	}
	d.c.waitMu.Lock()
	d.c.waiters[waitKey{att.node, att.remoteID}] = d.wake
	d.c.waitMu.Unlock()
	signal(d.wake)
}

// unwatch ends an attempt's registration.
func (d *dispatch) unwatch(att *attempt) {
	if d.wake == nil {
		return
	}
	d.c.waitMu.Lock()
	delete(d.c.waiters, waitKey{att.node, att.remoteID})
	d.c.waitMu.Unlock()
}

// waitKey names one worker job: the node holding it and its id there.
type waitKey struct {
	node  *node
	jobID string
}

// wake signals the dispatch waiting on a worker job, if any, without
// blocking: a wake already pending covers this one.
func (c *Coordinator) wake(n *node, jobID string) {
	c.waitMu.Lock()
	ch := c.waiters[waitKey{n, jobID}]
	c.waitMu.Unlock()
	signal(ch)
}

// signal makes a non-blocking send on a one-slot wake channel; on a nil
// channel (no waiter) it does nothing.
func signal(ch chan<- struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// remove takes an attempt out of the live set.
func (d *dispatch) remove(att *attempt) {
	d.live = slices.DeleteFunc(d.live, func(a *attempt) bool { return a == att })
	d.unwatch(att)
}

// place reports the job's placement on the service's status.
func (d *dispatch) place(on *attempt) {
	p := simsvc.Placement{Attempts: d.attempts, Hedged: d.hedged}
	if on != nil {
		p.Node, p.RemoteID = on.node.id, on.remoteID
	}
	simsvc.Place(d.ctx, p)
}

// poll refreshes one attempt's worker-side state and reacts: done → fetch
// the result; failed → the job fails; cancelled by the worker (drain),
// forgotten (restart) or held by a dead or ejected worker → the attempt
// is dropped. Transient blips ride out.
func (d *dispatch) poll(att *attempt) (*doram.SimResult, error) {
	d.c.mu.Lock()
	alive := att.node.alive // a re-joined worker is a new node: this one stays dead
	d.c.mu.Unlock()
	if !alive {
		d.drop(att, "died")
		return nil, nil
	}
	code, data, _, err := d.c.doNode(att.node, http.MethodGet, "/v1/jobs/"+att.remoteID, nil)
	var st simsvc.JobStatus
	switch {
	case err != nil:
		if att.node.breaker.currentState() == breakerOpen {
			d.drop(att, "is unreachable")
		}
	case code == http.StatusNotFound:
		d.drop(att, "forgot the job")
	case code == http.StatusOK && json.Unmarshal(data, &st) == nil:
		switch st.State {
		case simsvc.StateDone:
			return d.fetch(att) // nil, nil if the worker died in between; the next poll sees it
		case simsvc.StateFailed:
			return nil, errors.New(st.Error)
		case simsvc.StateCancelled:
			// Not by us — a cancel ends the dispatch first: the worker
			// drained. The job is still wanted.
			d.drop(att, "drained the job")
		}
	}
	return nil, nil
}

// drop abandons one attempt. A lost primary is replaced by the hedge if
// there is one; otherwise the job goes back to the ring for re-dispatch.
func (d *dispatch) drop(att *attempt, why string) {
	d.remove(att)
	if len(d.live) == 0 {
		d.c.redispatched.Inc()
		d.c.cfg.Logger.Info("spec re-dispatching", slog.String("spec", d.hash), slog.String("node", att.node.id),
			slog.String("why", why))
		d.place(nil)
		return
	}
	d.place(d.live[0])
}

// fetch pulls a finished attempt's result, nil if the worker could not
// deliver it. The attempt leaves the live set: the rest lost. A result
// the worker delivered but that fails to decode or to pass
// SimResult.Check ends the job with an error naming the worker: the
// worker would serve the same bytes again.
func (d *dispatch) fetch(att *attempt) (*doram.SimResult, error) {
	code, data, _, err := d.c.doNode(att.node, http.MethodGet, "/v1/jobs/"+att.remoteID+"/result", nil)
	if err != nil || code != http.StatusOK {
		return nil, nil
	}
	res, err := decodeResult(data)
	if err != nil {
		return nil, fmt.Errorf("cluster: worker %s served a malformed result: %w", att.node.id, err)
	}
	if att != d.live[0] {
		d.c.hedgeWins.Inc()
	}
	d.remove(att)
	d.place(att)
	return res, nil
}

// decodeResult decodes a worker's result bytes and applies the checks a
// client applies before it uses a remote result.
func decodeResult(data []byte) (*doram.SimResult, error) {
	res := new(doram.SimResult)
	if err := json.Unmarshal(data, res); err != nil {
		return nil, err
	}
	if err := res.Check(); err != nil {
		return nil, err
	}
	return res, nil
}

// candidates returns the dispatch preference list for a spec hash: ring
// successors that are alive, breaker-admitted and not excluded.
func (c *Coordinator) candidates(hash, exclude string) []*node {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*node
	for _, id := range c.ring.successors(hash, len(c.nodes)) {
		if n := c.nodes[id]; id != exclude && n.alive && n.breaker.allow() {
			out = append(out, n)
		}
	}
	return out
}

// maxProxyBytes bounds a worker response body (results with metric
// timelines run to megabytes, not tens of them).
const maxProxyBytes = 64 << 20

// doNode performs one request against a worker, feeding the node's
// circuit breaker: transport failures count against it, any HTTP
// response (whatever the status) proves liveness and counts for it. A
// body that declares its length is read into an exact buffer, and one
// that ends short of that length is a transport failure.
func (c *Coordinator) doNode(n *node, method, path string, body []byte) (int, []byte, http.Header, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, n.id+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	var data []byte
	if err == nil {
		data, err = simsvc.ReadBody(resp.Body, resp.ContentLength, maxProxyBytes)
		resp.Body.Close()
	}
	if err != nil {
		c.proxyErrors.Inc()
		if n.breaker.onFailure() {
			c.breakerTrips.Inc()
			c.cfg.Logger.Info("breaker opened", slog.String("node", n.id))
		}
		return 0, nil, nil, err
	}
	n.breaker.onSuccess()
	return resp.StatusCode, data, resp.Header, nil
}
