package simsvc

import (
	"sync"
	"time"
)

// Event is one serving-plane occurrence: a job state transition, or a
// service lifecycle marker (drain). Every event carries the service-wide
// load gauges at publish time, so a consumer tailing the stream sees queue
// depth and sweep progress without polling /varz. Seq is a strictly
// increasing per-bus sequence number — the SSE event id, and the resume
// cursor for Last-Event-ID reconnects.
type Event struct {
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	// Kind is "job" for job transitions, "service" for lifecycle markers.
	Kind string `json:"kind"`
	// Node is the origin worker on a cluster-merged stream ("" locally).
	Node string `json:"node,omitempty"`

	JobID string `json:"job_id,omitempty"`
	State State  `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
	// Message annotates service-kind events ("draining", ...).
	Message   string `json:"message,omitempty"`
	CacheHit  bool   `json:"cache_hit,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`

	QueueDepth int    `json:"queue_depth"`
	Running    int    `json:"running"`
	Completed  uint64 `json:"completed"`
}

// Event kinds.
const (
	EventJob     = "job"
	EventService = "service"
)

// DefaultEventHistory is the bus's replay-ring size when Config.EventHistory
// is unset: late subscribers and Last-Event-ID reconnects can recover this
// many events before the stream restarts from live.
const DefaultEventHistory = 1024

// EventBus fans events out to subscribers and keeps a bounded replay ring
// for resume. Publishing never blocks: a subscriber more than its backlog
// bound behind is dropped (its subscription ends), and recovers by
// resubscribing from its last seen sequence number — exactly the SSE
// reconnect path.
type EventBus struct {
	mu      sync.Mutex
	seq     uint64
	ring    []Event // bounded history; circular once len == ringCap
	head    int     // oldest event's index once the ring is full
	ringCap int
	subs    map[*Subscription]struct{}
	closed  bool
}

// NewEventBus builds a bus keeping the given number of events for resume
// (0 means DefaultEventHistory).
func NewEventBus(history int) *EventBus {
	if history <= 0 {
		history = DefaultEventHistory
	}
	return &EventBus{ringCap: history, subs: make(map[*Subscription]struct{})}
}

// Subscription is one subscriber's feed: its replay, then live events,
// queued until the subscriber takes them. The queue grows only with the
// subscriber's real backlog; one more than its bound (the replay it
// started with plus the ring size) ends the subscription.
type Subscription struct {
	bus    *EventBus
	ready  chan struct{} // one slot: events pending, or the feed ended
	queue  []Event       // pending events, oldest first; guarded by bus.mu
	limit  int           // backlog bound, fixed at Subscribe
	closed bool          // no more events will queue; guarded by bus.mu
}

// Ready returns a channel that receives when events are pending or the
// subscription has ended. A receive may find nothing new to Take.
func (s *Subscription) Ready() <-chan struct{} { return s.ready }

// Take returns every pending event, oldest first, and whether more may
// follow: false once the bus closed, the subscriber was dropped or Close
// was called. The returned slice is the caller's until it passes it back
// as buf, which becomes the next pending queue.
func (s *Subscription) Take(buf []Event) ([]Event, bool) {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	evs := s.queue
	s.queue = buf[:0]
	return evs, !s.closed
}

// Close detaches the subscription. Idempotent, safe concurrently with
// publishes.
func (s *Subscription) Close() {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	s.bus.dropLocked(s)
}

func (b *EventBus) dropLocked(s *Subscription) {
	if _, ok := b.subs[s]; ok {
		delete(b.subs, s)
		s.closed = true
		signal(s.ready)
	}
}

// signal makes a non-blocking send on a one-slot channel: a token already
// pending covers this one.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// Subscribe returns a feed of every event with Seq > after, replaying from
// the ring first. An `after` older than the ring simply starts at the
// oldest retained event (the gap is unrecoverable; SSE clients notice via
// the sequence jump). The feed holds the replay plus up to a ring's worth
// of live backlog; consumers must take promptly or be dropped.
func (b *EventBus) Subscribe(after uint64) *Subscription {
	b.mu.Lock()
	defer b.mu.Unlock()
	// The ring holds the last len(ring) sequence numbers, contiguous.
	n := 0
	if after < b.seq {
		n = int(min(b.seq-after, uint64(len(b.ring))))
	}
	s := &Subscription{bus: b, ready: make(chan struct{}, 1), limit: n + b.ringCap}
	if n > 0 {
		s.queue = make([]Event, n)
		// The newest n events, oldest first; the ring starts at head.
		from := (b.head + len(b.ring) - n) % len(b.ring)
		k := copy(s.queue, b.ring[from:])
		copy(s.queue[k:], b.ring[:b.head])
		signal(s.ready)
	}
	if b.closed {
		s.closed = true
		signal(s.ready)
		return s
	}
	b.subs[s] = struct{}{}
	return s
}

// Publish assigns the event its sequence number, appends it to the replay
// ring and fans it out. Returns the stamped event. Publishing on a closed
// bus is a no-op (events during shutdown have nobody left to tell).
func (b *EventBus) Publish(ev Event) Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ev
	}
	b.seq++
	ev.Seq = b.seq
	if len(b.ring) < b.ringCap {
		b.ring = append(b.ring, ev)
	} else {
		b.ring[b.head] = ev
		b.head = (b.head + 1) % len(b.ring)
	}
	for s := range b.subs {
		if len(s.queue) >= s.limit {
			// Too far behind; drop it. The ended feed tells the SSE
			// handler to end the response, and the client reconnects
			// with Last-Event-ID to resume from the ring.
			b.dropLocked(s)
			continue
		}
		s.queue = append(s.queue, ev)
		signal(s.ready)
	}
	return ev
}

// LastSeq returns the most recently assigned sequence number.
func (b *EventBus) LastSeq() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Close ends the bus: every subscription ends after the events already
// queued, and later publishes are dropped.
func (b *EventBus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for s := range b.subs {
		b.dropLocked(s)
	}
}
