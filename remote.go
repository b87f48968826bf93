package doram

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"doram/internal/core"
	"doram/internal/retry"
)

// Remote sweeps: with ExperimentOptions.Endpoint set, each sweep run is
// lifted to a Params job spec, submitted to the doramd service over its
// HTTP API, and rebuilt from the SimResult's exact integer aggregates
// (SimResult.Raw) — so a remote sweep produces bit-identical tables to a
// local one; remote_test.go enforces it. Configurations a spec cannot
// express run in-process instead.

// remoteClient drives one doramd endpoint for a sweep.
type remoteClient struct {
	base string
	hc   *http.Client
}

func newRemoteClient(endpoint string) *remoteClient {
	for len(endpoint) > 0 && endpoint[len(endpoint)-1] == '/' {
		endpoint = endpoint[:len(endpoint)-1]
	}
	return &remoteClient{base: endpoint, hc: &http.Client{Timeout: 30 * time.Second}}
}

// exec is the sweep runner's executor: cfg runs on the endpoint when a job
// spec can express it, in-process otherwise.
func (rc *remoteClient) exec(cfg core.Config) (*core.Results, error) {
	p, ok := paramsFromCore(cfg)
	if !ok {
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		return sys.Run()
	}
	r, err := rc.run(p)
	if err != nil {
		return nil, err
	}
	return resultsFromRaw(cfg, r)
}

// submitRetries bounds how often a queue-full rejection is retried before
// the run is reported failed.
const submitRetries = 20

// transientRetries bounds how often a connection error or gateway error
// (502/503/504) is retried inside do before the run is reported failed.
// Retries only affect wall-clock behaviour — results stay bit-identical,
// since re-submitting a spec is idempotent on the service side.
const transientRetries = 6

// transientBackoff spaces the transient retries inside do.
var transientBackoff = retry.Backoff{Base: 250 * time.Millisecond, Cap: 10 * time.Second, Lo: 0.5, Hi: 1.5}

type remoteJob struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

// run executes one spec remotely: submit (retrying 429 backpressure per
// the server's Retry-After), poll to completion, fetch and decode the
// result.
func (rc *remoteClient) run(spec Params) (*SimResult, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var job remoteJob
	for attempt := 0; ; attempt++ {
		code, data, hdr, err := rc.do("POST", "/v1/jobs", body)
		if err != nil {
			return nil, fmt.Errorf("submit: %w", err)
		}
		if code == http.StatusTooManyRequests {
			if attempt == submitRetries {
				return nil, fmt.Errorf("submit: queue still full after %d retries", submitRetries)
			}
			time.Sleep(min(retry.After(hdr, 2*time.Second), 30*time.Second))
			continue
		}
		if code >= 300 {
			return nil, fmt.Errorf("submit: %s", retry.ErrorMessage(code, data))
		}
		if err := json.Unmarshal(data, &job); err != nil {
			return nil, fmt.Errorf("submit: decoding response: %w", err)
		}
		break
	}

	for !terminalState(job.State) {
		time.Sleep(50 * time.Millisecond)
		code, data, _, err := rc.do("GET", "/v1/jobs/"+job.ID, nil)
		if err != nil {
			return nil, fmt.Errorf("poll %s: %w", job.ID, err)
		}
		if code >= 300 {
			return nil, fmt.Errorf("poll %s: %s", job.ID, retry.ErrorMessage(code, data))
		}
		if err := json.Unmarshal(data, &job); err != nil {
			return nil, fmt.Errorf("poll %s: decoding status: %w", job.ID, err)
		}
	}
	if job.State != "done" {
		return nil, fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
	}

	code, data, _, err := rc.do("GET", "/v1/jobs/"+job.ID+"/result", nil)
	if err != nil {
		return nil, fmt.Errorf("result %s: %w", job.ID, err)
	}
	if code >= 300 {
		return nil, fmt.Errorf("result %s: %s", job.ID, retry.ErrorMessage(code, data))
	}
	var r SimResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("result %s: decoding: %w", job.ID, err)
	}
	return &r, nil
}

func terminalState(s string) bool {
	return s == "done" || s == "failed" || s == "cancelled"
}

// do performs one request, transparently retrying transient failures —
// connection errors (a worker restarting, a coordinator failing over) and
// gateway errors 502/503/504 — with jittered exponential backoff. Other
// statuses, including 429 backpressure (whose Retry-After policy belongs
// to the caller) and 500 (the job's own failure), are returned as-is.
func (rc *remoteClient) do(method, path string, body []byte) (int, []byte, http.Header, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		code, data, hdr, err := rc.doOnce(method, path, body)
		transient := err != nil ||
			code == http.StatusBadGateway || code == http.StatusServiceUnavailable ||
			code == http.StatusGatewayTimeout
		if !transient {
			return code, data, hdr, nil
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = errors.New(retry.ErrorMessage(code, data))
		}
		if attempt == transientRetries {
			return 0, nil, nil, fmt.Errorf("after %d attempts: %w", attempt+1, lastErr)
		}
		// 250ms·2^attempt capped at 10s, scaled by a random [0.5,1.5)
		// factor so a fleet of clients doesn't retry in lockstep.
		time.Sleep(transientBackoff.Delay(attempt, rand.Float64()))
	}
}

func (rc *remoteClient) doOnce(method, path string, body []byte) (int, []byte, http.Header, error) {
	req, err := http.NewRequest(method, rc.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rc.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, data, resp.Header, nil
}
