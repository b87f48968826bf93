package retry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"
)

// The client's one policy. Connection errors and gateway errors
// (502/503/504) are retried transientRetries times on transientBackoff,
// or after the server's Retry-After when it sends one. A 429 (queue full)
// waits for the server's Retry-After — queueDefault when absent, capped
// at queueCap — jittered ×[0.75, 1.25), up to queueRetries times. Every
// other status ≥ 300 is final: a 500 is the job's own failure. Retries
// only cost wall-clock time: re-submitting a spec is idempotent on the
// service side, so results are unchanged.
const (
	transientRetries = 6
	queueRetries     = 20
	queueDefault     = 2 * time.Second
	queueCap         = 30 * time.Second
)

var (
	transientBackoff = Backoff{Base: 250 * time.Millisecond, Cap: 10 * time.Second, Lo: 0.5, Hi: 1.5}
	// pollBackoff spaces Wait's status polls while a job's state holds.
	pollBackoff = Backoff{Base: 50 * time.Millisecond, Cap: 2 * time.Second, Lo: 0.5, Hi: 1.5}
)

// Job is a job's status as the API reports it, cut to the fields a client
// drives on. Unknown fields are ignored, so an older client keeps working
// against a newer server.
type Job struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

// Terminal reports whether the job is done, failed or cancelled.
func (j Job) Terminal() bool {
	return j.State == "done" || j.State == "failed" || j.State == "cancelled"
}

// Err is nil for a done job and otherwise names how the job ended.
func (j Job) Err() error {
	if j.State == "done" {
		return nil
	}
	return fmt.Errorf("job %s ended %s: %s", j.ID, j.State, j.Error)
}

// Client drives the doramd job API — a single service or a cluster
// coordinator, whose API is the same. It is safe for concurrent use when
// its jitter source is.
type Client struct {
	base   string
	hc     *http.Client
	jitter func() float64
	notice func(format string, args ...any)
}

// NewClient returns a client for the API rooted at base (no trailing
// slash). hc nil means http.DefaultClient. jitter draws the jitter
// factors uniformly from [0, 1); nil means math/rand's Float64. notice,
// when set, receives one line per retry and per job state change.
func NewClient(base string, hc *http.Client, jitter func() float64, notice func(format string, args ...any)) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	if jitter == nil {
		jitter = rand.Float64
	}
	return &Client{base: base, hc: hc, jitter: jitter, notice: notice}
}

func (c *Client) note(format string, args ...any) {
	if c.notice != nil {
		c.notice(format, args...)
	}
}

// Send performs one request under the transient policy and returns the
// final status, body and header. It turns no status into an error and
// never retries a 429: that is for callers which must read a rejection,
// such as a batch submit whose 429 still carries the jobs it accepted.
func (c *Client) Send(method, path string, body []byte) (int, []byte, http.Header, error) {
	for attempt := 0; ; attempt++ {
		code, data, hdr, err := c.once(method, path, body)
		gateway := code == http.StatusBadGateway || code == http.StatusServiceUnavailable ||
			code == http.StatusGatewayTimeout
		if err == nil && !gateway {
			return code, data, hdr, nil
		}
		if err == nil {
			err = errors.New(ErrorMessage(code, data))
		}
		if attempt == transientRetries {
			return 0, nil, nil, fmt.Errorf("after %d attempts: %w", attempt+1, err)
		}
		delay := After(hdr, transientBackoff.Delay(attempt, c.jitter()))
		c.note("%v, retrying in %s", err, delay.Round(time.Millisecond))
		time.Sleep(delay)
	}
}

func (c *Client) once(method, path string, body []byte) (int, []byte, http.Header, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
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

// Do performs one request under the whole policy and returns the body of
// a success; a final status ≥ 300 becomes the error envelope's message.
func (c *Client) Do(method, path string, body []byte) ([]byte, error) {
	for queued := 0; ; queued++ {
		code, data, hdr, err := c.Send(method, path, body)
		switch {
		case err != nil:
			return nil, err
		case code == http.StatusTooManyRequests && queued < queueRetries:
			// Jitter so a fleet of clients doesn't re-dogpile the queue.
			delay := Jitter(min(After(hdr, queueDefault), queueCap), 0.75, 1.25, c.jitter())
			c.note("queue full, retrying in %s", delay.Round(time.Millisecond))
			time.Sleep(delay)
		case code >= 300:
			return nil, errors.New(ErrorMessage(code, data))
		default:
			return data, nil
		}
	}
}

// Submit posts one job spec and returns the accepted job, decoded and as
// the raw status document.
func (c *Client) Submit(spec []byte) (Job, []byte, error) {
	data, err := c.Do("POST", "/v1/jobs", spec)
	if err != nil {
		return Job{}, nil, fmt.Errorf("submit: %w", err)
	}
	var j Job
	if err := json.Unmarshal(data, &j); err != nil {
		return Job{}, nil, fmt.Errorf("submit: decoding response: %w", err)
	}
	return j, data, nil
}

// Status reads a job's current status.
func (c *Client) Status(id string) (Job, error) {
	data, err := c.Do("GET", "/v1/jobs/"+id, nil)
	if err != nil {
		return Job{}, fmt.Errorf("status %s: %w", id, err)
	}
	var j Job
	if err := json.Unmarshal(data, &j); err != nil {
		return Job{}, fmt.Errorf("status %s: decoding: %w", id, err)
	}
	return j, nil
}

// Wait polls a job until it is terminal and returns its final status,
// noting each state change. The interval doubles on pollBackoff while the
// state holds and resets whenever it changes.
func (c *Client) Wait(id string) (Job, error) {
	last, quiet := "", 0
	for {
		j, err := c.Status(id)
		if err != nil {
			return Job{}, err
		}
		if j.State != last {
			c.note("%s %s", id, j.State)
			last, quiet = j.State, 0
		}
		if j.Terminal() {
			return j, nil
		}
		time.Sleep(pollBackoff.Delay(quiet, c.jitter()))
		quiet++
	}
}

// Run submits a spec, waits for its job and returns the result document.
// A job that ends other than done is an error.
func (c *Client) Run(spec []byte) ([]byte, error) {
	j, _, err := c.Submit(spec)
	if err != nil {
		return nil, err
	}
	if j, err = c.Wait(j.ID); err != nil {
		return nil, err
	}
	if err := j.Err(); err != nil {
		return nil, err
	}
	data, err := c.Do("GET", "/v1/jobs/"+j.ID+"/result", nil)
	if err != nil {
		return nil, fmt.Errorf("result %s: %w", j.ID, err)
	}
	return data, nil
}

// Stream keeps an event stream open. follow consumes one connection and
// returns nil once the caller has seen enough; a connection that fails is
// reopened on the transient backoff, whose budget resets whenever the
// connection made progress.
func (c *Client) Stream(follow func() (progressed bool, err error)) error {
	for attempt := 0; ; {
		progressed, err := follow()
		if err == nil {
			return nil
		}
		if progressed {
			attempt = 0 // a fresh outage
		}
		if attempt == transientRetries {
			return fmt.Errorf("event stream: %w", err)
		}
		delay := transientBackoff.Delay(attempt, c.jitter())
		attempt++
		c.note("stream interrupted (%v), reconnecting in %s", err, delay.Round(time.Millisecond))
		time.Sleep(delay)
	}
}
