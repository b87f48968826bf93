package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"doram/internal/evtrace"
	"doram/internal/retry"
)

// RunConfig shapes one load run against a doramd endpoint (single node or
// cluster coordinator — the HTTP API is identical).
type RunConfig struct {
	// BaseURL is the doramd endpoint, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client issues the HTTP requests; nil means http.DefaultClient.
	Client *http.Client
	// Clock drives scheduling and latency stamps; nil means RealClock.
	Clock Clock
	// PollInterval is the job-status polling cadence; 0 means 2ms.
	PollInterval time.Duration
	// Max429Retries bounds how often one request re-submits after a 429
	// before being recorded as rejected; 0 means 8. Retries wait the
	// server's Retry-After and never delay other arrivals (the schedule
	// stays open-loop).
	Max429Retries int
	// OnSend, if set, observes every submission attempt the moment before
	// its HTTP POST (including 429 retries). Tests use it to assert the
	// open-loop property.
	OnSend func(SendInfo)
	// OnDone, if set, observes each request's final outcome.
	OnDone func(Outcome)
}

// SendInfo describes one submission attempt.
type SendInfo struct {
	Index   int           // request index in the plan
	Attempt int           // 0 for the scheduled send, 1+ for 429 retries
	At      time.Duration // offset from run start
}

// Outcome states.
const (
	OutcomeDone     = "done"     // simulation finished, result fetched
	OutcomeFailed   = "failed"   // job reached a terminal failure state
	OutcomeRejected = "rejected" // 429 retries exhausted
	OutcomeError    = "error"    // transport or protocol error
)

// Outcome is one request's fate.
type Outcome struct {
	Req         Request
	ScheduledAt time.Duration // planned arrival (the open-loop anchor)
	SentAt      time.Duration // when the first submission attempt began
	DoneAt      time.Duration // when the terminal outcome was recorded
	State       string        // one of the Outcome constants
	CacheHit    bool
	Coalesced   bool
	Retries429  int
	Err         string
	// Breakdown is the per-stage latency attribution from the result
	// (nil when the spec did not trace or the request did not complete).
	Breakdown *evtrace.Report
}

// WallLatency is the coordinated-omission-correct end-to-end latency: time
// from the *planned* arrival to the terminal outcome, so queueing delay a
// stalled server causes is charged to the request rather than silently
// deferring it.
func (o Outcome) WallLatency() time.Duration { return o.DoneAt - o.ScheduledAt }

func (rc RunConfig) withDefaults() RunConfig {
	if rc.Client == nil {
		rc.Client = http.DefaultClient
	}
	if rc.Clock == nil {
		rc.Clock = RealClock{}
	}
	if rc.PollInterval <= 0 {
		rc.PollInterval = 2 * time.Millisecond
	}
	if rc.Max429Retries <= 0 {
		rc.Max429Retries = 8
	}
	return rc
}

// Run drives a planned request stream against the endpoint, open-loop:
// each request is sent at its planned offset regardless of how earlier
// requests are faring, with every in-flight request handled on its own
// goroutine. It returns one Outcome per planned request, in plan order.
// ctx cancellation abandons unsent requests and marks in-flight ones as
// errors; the outcomes gathered so far are still returned.
func Run(ctx context.Context, cfg RunConfig, reqs []Request) ([]Outcome, error) {
	cfg = cfg.withDefaults()
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: run needs a BaseURL")
	}
	start := cfg.Clock.Now()
	outcomes := make([]Outcome, len(reqs))
	var wg sync.WaitGroup
dispatch:
	for i, r := range reqs {
		// Open-loop: the wait is computed from the planned offset and the
		// clock only — response times never enter the schedule.
		if wait := r.At - cfg.Clock.Now().Sub(start); wait > 0 {
			select {
			case <-cfg.Clock.After(wait):
			case <-ctx.Done():
				for j := i; j < len(reqs); j++ {
					outcomes[j] = Outcome{Req: reqs[j], ScheduledAt: reqs[j].At, State: OutcomeError, Err: ctx.Err().Error()}
				}
				break dispatch
			}
		}
		wg.Add(1)
		go func(i int, r Request) {
			defer wg.Done()
			outcomes[i] = cfg.execute(ctx, start, r)
			if cfg.OnDone != nil {
				cfg.OnDone(outcomes[i])
			}
		}(i, r)
	}
	wg.Wait()
	return outcomes, ctx.Err()
}

// jobStatus is the slice of simsvc.JobStatus the runner consumes.
type jobStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	CacheHit  bool   `json:"cache_hit"`
	Coalesced bool   `json:"coalesced"`
	Error     string `json:"error"`
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "cancelled"
}

// resultBreakdown is the slice of doram.SimResult the runner consumes.
type resultBreakdown struct {
	LatencyBreakdown *evtrace.Report `json:"LatencyBreakdown"`
}

// execute shepherds one request: submit (retrying 429s per Retry-After),
// poll to a terminal state, fetch the result's latency attribution.
func (rc RunConfig) execute(ctx context.Context, start time.Time, r Request) Outcome {
	out := Outcome{Req: r, ScheduledAt: r.At, SentAt: rc.Clock.Now().Sub(start)}
	fail := func(state, msg string) Outcome {
		out.State, out.Err = state, msg
		out.DoneAt = rc.Clock.Now().Sub(start)
		return out
	}

	body, err := json.Marshal(r.Spec)
	if err != nil {
		return fail(OutcomeError, fmt.Sprintf("marshal spec: %v", err))
	}
	var st jobStatus
	for attempt := 0; ; attempt++ {
		if rc.OnSend != nil {
			rc.OnSend(SendInfo{Index: r.Index, Attempt: attempt, At: rc.Clock.Now().Sub(start)})
		}
		code, retryAfter, err := rc.postJob(ctx, body, &st)
		if err != nil {
			return fail(OutcomeError, err.Error())
		}
		if code == http.StatusAccepted || code == http.StatusOK {
			break
		}
		if code != http.StatusTooManyRequests {
			return fail(OutcomeError, fmt.Sprintf("submit: HTTP %d", code))
		}
		out.Retries429++
		if attempt+1 > rc.Max429Retries {
			return fail(OutcomeRejected, "submit: 429 retries exhausted")
		}
		select {
		case <-rc.Clock.After(retryAfter):
		case <-ctx.Done():
			return fail(OutcomeError, ctx.Err().Error())
		}
	}

	for !terminal(st.State) {
		select {
		case <-rc.Clock.After(rc.PollInterval):
		case <-ctx.Done():
			return fail(OutcomeError, ctx.Err().Error())
		}
		if err := rc.getJSON(ctx, "/v1/jobs/"+st.ID, &st); err != nil {
			return fail(OutcomeError, err.Error())
		}
	}
	out.CacheHit, out.Coalesced = st.CacheHit, st.Coalesced
	if st.State != "done" {
		return fail(OutcomeFailed, st.Error)
	}
	var res resultBreakdown
	if err := rc.getJSON(ctx, "/v1/jobs/"+st.ID+"/result", &res); err != nil {
		return fail(OutcomeError, err.Error())
	}
	out.Breakdown = res.LatencyBreakdown
	out.State = OutcomeDone
	out.DoneAt = rc.Clock.Now().Sub(start)
	return out
}

// postJob submits one spec; on 429 it also parses the Retry-After hint
// (defaulting to 100ms when absent or malformed).
func (rc RunConfig) postJob(ctx context.Context, spec []byte, st *jobStatus) (code int, retryAfter time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rc.BaseURL+"/v1/jobs", bytes.NewReader(spec))
	if err != nil {
		return 0, 0, fmt.Errorf("submit: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rc.Client.Do(req)
	if err != nil {
		return 0, 0, fmt.Errorf("submit: %w", err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusTooManyRequests {
		return resp.StatusCode, retry.After(resp.Header, 100*time.Millisecond), nil
	}
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(st); err != nil {
			return 0, 0, fmt.Errorf("submit: decoding status: %w", err)
		}
	}
	return resp.StatusCode, 0, nil
}

// getJSON fetches one API object.
func (rc RunConfig) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rc.BaseURL+path, nil)
	if err != nil {
		return fmt.Errorf("get %s: %w", path, err)
	}
	resp, err := rc.Client.Do(req)
	if err != nil {
		return fmt.Errorf("get %s: %w", path, err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("get %s: HTTP %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("get %s: decoding: %w", path, err)
	}
	return nil
}
