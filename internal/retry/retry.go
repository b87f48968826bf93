// Package retry is the client side of the doramd job API. Client is the
// one job client — doramctl and the experiments runner's remote sweeps
// submit, poll, fetch results and retry through it, under one policy. The
// primitives beneath it (the Retry-After header in both directions,
// jittered capped exponential backoff and the JSON error envelope) are
// shared with the clients that keep their own loops on purpose:
// doramload's open-loop runner and the cluster coordinator and workers.
// It imports only the standard library, so any package can use it
// without an import cycle.
package retry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Header renders d as a Retry-After value in whole seconds, clamped to at
// least 1: a sub-second hint would round to "0", which After (like any
// seconds-form parser) treats as absent.
func Header(d time.Duration) string {
	secs := int(d.Seconds() + 0.5)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// After reads a Retry-After header in its seconds form, returning def
// when the header is absent, malformed or not positive.
func After(h http.Header, def time.Duration) time.Duration {
	if h == nil {
		return def
	}
	if secs, err := strconv.Atoi(h.Get("Retry-After")); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	return def
}

// Backoff is a capped exponential schedule with multiplicative jitter.
type Backoff struct {
	Base, Cap time.Duration
	// Lo and Hi bound the jitter factor: each delay is scaled by a factor
	// drawn uniformly from [Lo, Hi).
	Lo, Hi float64
}

// Delay returns the delay before retry number attempt (0-based):
// Base doubled attempt times, capped at Cap, then jittered by the uniform
// draw u in [0, 1).
func (b Backoff) Delay(attempt int, u float64) time.Duration {
	d := b.Base
	for i := 0; i < attempt && d < b.Cap; i++ {
		d *= 2
	}
	return Jitter(min(d, b.Cap), b.Lo, b.Hi, u)
}

// Jitter scales d by the factor lo + (hi-lo)·u, for u uniform in [0, 1),
// so synchronized clients spread out.
func Jitter(d time.Duration, lo, hi, u float64) time.Duration {
	return time.Duration(float64(d) * (lo + (hi-lo)*u))
}

// ErrorMessage renders an error response for a Go error: the message of
// the service's JSON envelope ({"error": "..."}) with the status code, or
// the status code and raw body when the envelope is missing.
func ErrorMessage(code int, body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Sprintf("%s (HTTP %d)", e.Error, code)
	}
	return fmt.Sprintf("HTTP %d: %s", code, bytes.TrimSpace(body))
}
