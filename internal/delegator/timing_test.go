package delegator

import (
	"testing"

	"doram/internal/evtrace"
)

// TestTimingChannelRequestRateIndependentOfLoad pins §III-G's timing-
// channel defence: the engine emits requests at the same fixed cadence
// whether the S-App is hammering memory or completely idle, so an
// observer of the request stream cannot tell the difference.
func TestTimingChannelRequestRateIndependentOfLoad(t *testing.T) {
	requestTimes := func(loaded bool) []uint64 {
		r := newRig(t, 0, DefaultPace)
		// Count engine sends per window via its counters.
		const horizon = 400000
		const window = 50000
		counts := make([]uint64, 0, horizon/window)
		var prevSent uint64
		for w := uint64(0); w < horizon; w += window {
			if loaded {
				for r.engine.QueueLen() < 8 {
					r.engine.Access(false, uint64(w)+uint64(r.engine.QueueLen())*640, w, nil)
				}
			}
			r.run(w, window)
			sent := r.counter("real_sent") + r.counter("dummy_sent")
			counts = append(counts, sent-prevSent)
			prevSent = sent
		}
		return counts
	}
	idle := requestTimes(false)
	loaded := requestTimes(true)
	// Skip the first (cold) window; the per-window request counts must
	// match closely between the idle (all dummy) and loaded (all real)
	// streams.
	for i := 1; i < len(idle); i++ {
		a, b := idle[i], loaded[i]
		diff := int64(a) - int64(b)
		if diff < 0 {
			diff = -diff
		}
		if a == 0 || float64(diff)/float64(a) > 0.05 {
			t.Fatalf("window %d: idle sent %d, loaded sent %d — request rate leaks load", i, a, b)
		}
	}
}

// checkPacing runs an idle engine paced at pace for n CPU cycles and
// checks, on the engine's "request" spans, that every request after the
// first departs exactly pace CPU cycles after the previous response
// arrives.
func checkPacing(t *testing.T, pace, n uint64) {
	t.Helper()
	r := newRig(t, 0, pace)
	tr := evtrace.New(evtrace.Config{Limit: 1 << 16})
	r.engine.AttachTracer(tr, "sapp0.engine")
	r.run(0, n)
	gaps := 0
	prevEnd := int64(-1)
	for _, ev := range tr.Finish().Events {
		if ev.Name != "request" {
			continue
		}
		if prevEnd >= 0 {
			if gap := int64(ev.Start) - prevEnd; gap != int64(pace) {
				t.Fatalf("request at cycle %d issued %d cycles after the previous response, want exactly %d", ev.Start, gap, pace)
			}
			gaps++
		}
		prevEnd = int64(ev.End)
	}
	if gaps < 10 {
		t.Fatalf("too few paced requests (%d) to judge the pacing", gaps)
	}
}

// TestResponsePacingExactlyT checks §III-B item 2 at a pace long enough
// for the SD to drain its write phase: every request departs exactly t
// CPU cycles after the previous response arrives.
func TestResponsePacingExactlyT(t *testing.T) { checkPacing(t, 4000, 400000) }
