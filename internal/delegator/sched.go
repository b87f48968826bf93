package delegator

// sched is a tiny future-event list used by the SD to model
// multi-hop message chains and queue-retry without a global event engine.
// Event counts are small (bounded by blocks per ORAM phase), so a linear
// scan is cheaper than a heap.
type sched struct {
	events []schedEvent
	due    []schedEvent // scratch reused across Runs, so draining is alloc-free
}

type schedEvent struct {
	at uint64
	fn func(now uint64)
}

// Add schedules fn at the given CPU cycle.
func (s *sched) Add(at uint64, fn func(now uint64)) {
	s.events = append(s.events, schedEvent{at: at, fn: fn})
}

// Run executes all events due at or before now. Events may schedule new
// events (including for the current cycle); Run drains until no due events
// remain. The due list and the surviving-events compaction both reuse the
// scheduler's own backing arrays — this runs on every SD tick, and
// rebuilding the slices from scratch used to dominate the simulator's
// allocation profile.
func (s *sched) Run(now uint64) {
	for {
		due := s.due[:0]
		s.due = nil // reentrancy guard: a nested Run allocates its own scratch
		n := len(s.events)
		evs := s.events
		keep := evs[:0]
		// Copy out due events first: fn may append to s.events. due and
		// evs are distinct arrays, so the in-place keep compaction (which
		// only moves elements left, past indexes already scanned) cannot
		// clobber them.
		for _, e := range evs {
			if e.at <= now {
				due = append(due, e)
			} else {
				keep = append(keep, e)
			}
		}
		for i := len(keep); i < n; i++ {
			evs[i] = schedEvent{} // drop closure refs from the vacated tail
		}
		s.events = keep
		for _, e := range due {
			e.fn(now)
		}
		ran := len(due) > 0
		s.due = due
		if !ran {
			return
		}
	}
}

// Empty reports whether no events are pending.
func (s *sched) Empty() bool { return len(s.events) == 0 }

// NextAt returns the earliest pending event time; ok is false when no
// events are pending.
func (s *sched) NextAt() (at uint64, ok bool) {
	if len(s.events) == 0 {
		return 0, false
	}
	at = s.events[0].at
	for _, e := range s.events[1:] {
		if e.at < at {
			at = e.at
		}
	}
	return at, true
}
