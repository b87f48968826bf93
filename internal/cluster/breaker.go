package cluster

import (
	"sync"
	"time"
)

// breakerState is a circuit breaker's position.
type breakerState int

const (
	breakerClosed   breakerState = iota // healthy: all requests pass
	breakerOpen                         // ejected: requests blocked until cooldown
	breakerHalfOpen                     // probing: requests pass, counted as probes
)

func (s breakerState) String() string { return [...]string{"closed", "open", "half-open"}[s] }

// breaker is a per-worker circuit breaker over transport-level outcomes.
// Consecutive request failures trip it open, ejecting the worker from
// dispatch; after a cooldown it half-opens and lets probe requests
// through; enough consecutive probe successes close it again, while any
// probe failure re-opens it. It reacts only to transport failures
// (connection refused/reset, timeouts) — an HTTP response of any status
// proves the worker is alive and counts as success.
//
//	closed ──(threshold consecutive failures)──▶ open
//	open ──(cooldown elapsed)──▶ half-open
//	half-open ──(probes consecutive successes)──▶ closed
//	half-open ──(any failure)──▶ open
//
// Safe for concurrent use; now is injectable so tests drive the state
// machine with a fake clock.
type breaker struct {
	threshold int           // consecutive failures that trip it
	cooldown  time.Duration // open → half-open delay
	probes    int           // half-open successes that close it
	now       func() time.Time

	mu       sync.Mutex
	state    breakerState
	fails    int // consecutive failures while closed
	probeOK  int // consecutive successes while half-open
	openedAt time.Time
	trips    int
}

func newBreaker(threshold int, cooldown time.Duration, probes int, now func() time.Time) *breaker {
	if threshold <= 0 {
		threshold = 3
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	if probes <= 0 {
		probes = 2
	}
	if now == nil {
		now = time.Now
	}
	return &breaker{threshold: threshold, cooldown: cooldown, probes: probes, now: now}
}

// allow reports whether a request may be sent. An open breaker whose
// cooldown has elapsed half-opens as a side effect (the caller's request
// is the first probe).
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerOpen && b.now().Sub(b.openedAt) >= b.cooldown {
		b.state = breakerHalfOpen
		b.probeOK = 0
	}
	return b.state != breakerOpen // half-open: probes pass
}

// onSuccess records a request that reached the worker.
func (b *breaker) onSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		b.fails = 0
	case breakerHalfOpen:
		b.probeOK++
		if b.probeOK >= b.probes {
			b.state = breakerClosed
			b.fails = 0
		}
	}
	// A success while open can only be a request admitted just before the
	// trip; it does not short-circuit the cooldown.
}

// onFailure records a transport-level failure and reports whether it
// opened the breaker.
func (b *breaker) onFailure() (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		b.fails++
		tripped = b.fails >= b.threshold
	case breakerHalfOpen:
		tripped = true
	}
	if tripped {
		b.trip()
	}
	return tripped
}

// trip opens the breaker; the caller holds the lock.
func (b *breaker) trip() {
	b.state = breakerOpen
	b.openedAt = b.now()
	b.fails = 0
	b.probeOK = 0
	b.trips++
}

// currentState returns the state, applying a pending open → half-open
// transition so callers see the same answer allow would act on.
func (b *breaker) currentState() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerOpen && b.now().Sub(b.openedAt) >= b.cooldown {
		return breakerHalfOpen
	}
	return b.state
}

// tripCount returns how many times the breaker has opened.
func (b *breaker) tripCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}
