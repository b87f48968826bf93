package simsvc

import (
	"net/http/httptest"
	"testing"
	"time"
)

// TestRetryAfterHeaderClamped is a regression test for the Retry-After
// rounding bug: a sub-second RetryAfter used to render as "0", which
// seconds-form parsers treat as absent, so clients never saw the server's
// backpressure hint. The transport must clamp to at least 1 second
// regardless of what the Error carries (retry.Header's table pins the
// rounding itself).
func TestRetryAfterHeaderClamped(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, &Error{Kind: ErrQueueFull, Msg: "queue full",
		RetryAfter: 250 * time.Millisecond})
	if rec.Code != 429 {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q for a 250ms hint, want %q", got, "1")
	}
}
