package cluster

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock for deterministic breaker tests.
// Dispatch goroutines read it while the test advances it, so it locks.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// TestBreakerTripAndRecover drives the full state machine on a fake
// clock: closed → open after threshold failures, open → half-open after
// the cooldown, half-open → closed after enough probe successes.
func TestBreakerTripAndRecover(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(3, 5*time.Second, 2, clk.now)

	if !b.allow() || b.currentState() != breakerClosed {
		t.Fatalf("fresh breaker not closed/allowing")
	}

	// Two failures stay under threshold; an interleaved success resets.
	b.onFailure()
	b.onFailure()
	b.onSuccess()
	b.onFailure()
	b.onFailure()
	if b.currentState() != breakerClosed {
		t.Fatalf("breaker tripped on non-consecutive failures")
	}
	b.onFailure() // third consecutive
	if b.currentState() != breakerOpen || b.allow() {
		t.Fatalf("breaker not open after 3 consecutive failures: %v", b.currentState())
	}
	if b.tripCount() != 1 {
		t.Fatalf("trips = %d, want 1", b.tripCount())
	}

	// Still open before the cooldown elapses.
	clk.advance(4 * time.Second)
	if b.allow() {
		t.Fatalf("open breaker admitted a request before cooldown")
	}

	// Cooldown elapsed: half-open, probes pass.
	clk.advance(2 * time.Second)
	if !b.allow() || b.currentState() != breakerHalfOpen {
		t.Fatalf("breaker not half-open after cooldown: %v", b.currentState())
	}
	b.onSuccess()
	if b.currentState() != breakerHalfOpen {
		t.Fatalf("breaker closed after 1 of 2 probes")
	}
	b.onSuccess()
	if b.currentState() != breakerClosed {
		t.Fatalf("breaker not closed after 2 probe successes: %v", b.currentState())
	}
}

// TestBreakerHalfOpenFailureReopens: a failed probe re-opens immediately
// and restarts the cooldown — a flapping worker cannot oscillate its way
// back in.
func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(1, 5*time.Second, 2, clk.now)

	b.onFailure() // threshold 1: trip
	clk.advance(5 * time.Second)
	if !b.allow() {
		t.Fatalf("breaker not half-open after cooldown")
	}
	b.onSuccess()
	b.onFailure() // probe fails → re-open
	if b.currentState() != breakerOpen || b.allow() {
		t.Fatalf("failed probe did not re-open the breaker")
	}
	if b.tripCount() != 2 {
		t.Fatalf("trips = %d, want 2", b.tripCount())
	}

	// The new cooldown starts from the re-open, not the original trip.
	clk.advance(4 * time.Second)
	if b.allow() {
		t.Fatalf("re-opened breaker honored the stale cooldown")
	}
	clk.advance(time.Second)
	if !b.allow() {
		t.Fatalf("re-opened breaker never half-opened again")
	}
	// probeOK reset at re-open: needs 2 fresh successes.
	b.onSuccess()
	if b.currentState() == breakerClosed {
		t.Fatalf("breaker reused stale probe credit")
	}
	b.onSuccess()
	if b.currentState() != breakerClosed {
		t.Fatalf("breaker did not close after fresh probes")
	}
}
