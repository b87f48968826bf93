package retry

import (
	"net/http"
	"testing"
	"time"
)

// TestRetryAfterHeaderClamped is the regression test for the Retry-After
// rounding bug: a sub-second hint used to render as "0", which parsers
// discard, so the server's backpressure hint never reached clients. The
// emitted value must be at least "1" and survive a parse round trip.
func TestRetryAfterHeaderClamped(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{300 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1600 * time.Millisecond, "2"},
		{2500 * time.Millisecond, "3"},
		{90 * time.Second, "90"},
	}
	for _, tc := range cases {
		if got := Header(tc.d); got != tc.want {
			t.Errorf("Header(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
	h := http.Header{}
	h.Set("Retry-After", Header(300*time.Millisecond))
	if got := After(h, 5*time.Second); got != time.Second {
		t.Errorf("After(emitted header) = %v, want 1s", got)
	}
}

func TestAfterFallsBack(t *testing.T) {
	def := 2 * time.Second
	for _, v := range []string{"", "0", "-3", "soon", "1.5"} {
		h := http.Header{}
		if v != "" {
			h.Set("Retry-After", v)
		}
		if got := After(h, def); got != def {
			t.Errorf("After(%q) = %v, want the default %v", v, got, def)
		}
	}
	if got := After(nil, def); got != def {
		t.Errorf("After(nil) = %v, want %v", got, def)
	}
}

// TestBackoffSchedule pins the schedule every caller relies on: doubling
// from Base, capped at Cap, and scaled into [Lo, Hi) by the jitter draw.
func TestBackoffSchedule(t *testing.T) {
	b := Backoff{Base: 250 * time.Millisecond, Cap: 5 * time.Second, Lo: 0.75, Hi: 1.25}
	want := []time.Duration{250, 500, 1000, 2000, 4000, 5000, 5000}
	for attempt, w := range want {
		if got := b.Delay(attempt, 0.5); got != w*time.Millisecond {
			t.Errorf("Delay(%d, 0.5) = %v, want %v", attempt, got, w*time.Millisecond)
		}
	}
	if got := b.Delay(0, 0); got != 187500*time.Microsecond {
		t.Errorf("Delay(0, 0) = %v, want the low jitter bound 187.5ms", got)
	}
	if got := b.Delay(100, 0.999); got >= 6250*time.Millisecond || got < 6240*time.Millisecond {
		t.Errorf("Delay(100, ~1) = %v, want just under the high bound 6.25s", got)
	}
}

func TestErrorMessage(t *testing.T) {
	if got := ErrorMessage(404, []byte(`{"error":"simsvc: unknown job \"x\""}`)); got != `simsvc: unknown job "x" (HTTP 404)` {
		t.Errorf("envelope: got %q", got)
	}
	if got := ErrorMessage(502, []byte("bad gateway\n")); got != "HTTP 502: bad gateway" {
		t.Errorf("raw body: got %q", got)
	}
}
