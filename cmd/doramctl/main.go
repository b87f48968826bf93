// Command doramctl is the client for a doramd simulation service.
//
// Usage:
//
//	doramctl [-server URL] <command> [args]
//
//	doramctl health
//	doramctl submit spec.json            submit one job spec (- = stdin)
//	doramctl submit -wait spec.json      ... and block until it finishes
//	doramctl sweep a.json b.json c.json  submit a batch in one request
//	doramctl sweep -wait a.json b.json
//	doramctl run spec.json               submit, wait, print the result
//	doramctl status j-00000001
//	doramctl wait j-00000001             poll until the job is terminal
//	doramctl wait -follow j-00000001     ... streaming transitions live (SSE)
//	doramctl result j-00000001           print the finished job's result
//	doramctl metrics j-00000001          print the job's metric dump
//	doramctl cancel j-00000001
//	doramctl tail                        stream every service event live
//	doramctl tail j-0000001 j-0000002    ... filtered to those jobs, exiting
//	                                     once all of them are terminal
//	doramctl varz                        print the service metric dump
//	doramctl nodes                       list cluster workers (coordinator)
//
// Job specs are the JSON documents accepted by POST /v1/jobs (the
// canonical doram.Params encoding); see README "Serving mode". The
// server may be a single doramd or a cluster coordinator (README
// "Cluster mode") — the API is identical; against a coordinator, tail
// shows the merged stream including per-worker events.
//
// Transient failures are retried with jittered exponential backoff:
// connection errors and 502/503/504 for a handful of attempts, and 429
// (queue full) honouring the server's Retry-After. A plain 500 means
// the job itself failed and is not retried. wait polls with the same
// jittered backoff (100ms doubling to a 2s cap), resetting whenever the
// job makes progress; -follow replaces polling with the server's SSE
// event stream and falls back to polling if streaming is unavailable.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"doram/internal/retry"
	"doram/internal/simsvc"
	"doram/internal/xrand"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: doramctl [-server URL] {health|varz|nodes|submit|run|sweep|status|wait|result|metrics|cancel|tail} ...")
	os.Exit(2)
}

func main() {
	server := "http://127.0.0.1:8344"
	args := os.Args[1:]
	// One global flag, accepted before the subcommand.
	for len(args) > 0 && strings.HasPrefix(args[0], "-") {
		switch {
		case args[0] == "-server" && len(args) > 1:
			server, args = args[1], args[2:]
		case strings.HasPrefix(args[0], "-server="):
			server, args = strings.TrimPrefix(args[0], "-server="), args[1:]
		default:
			usage()
		}
	}
	if len(args) == 0 {
		usage()
	}
	c := newClient(server)

	cmd, args := args[0], args[1:]
	var err error
	switch cmd {
	case "health":
		err = c.health()
	case "varz":
		err = c.printBody("GET", "/varz", nil)
	case "nodes":
		err = c.printBody("GET", "/v1/cluster/nodes", nil)
	case "submit":
		err = c.submit(args)
	case "run":
		err = c.run(args)
	case "sweep":
		err = c.sweep(args)
	case "status":
		err = c.oneJob(args, func(id string) error { return c.printBody("GET", "/v1/jobs/"+id, nil) })
	case "wait":
		follow := false
		if len(args) > 0 && (args[0] == "-follow" || args[0] == "--follow") {
			follow, args = true, args[1:]
		}
		if follow {
			err = c.oneJob(args, func(id string) error { _, err := c.waitFollow(id); return err })
		} else {
			err = c.oneJob(args, func(id string) error { _, err := c.wait(id); return err })
		}
	case "tail":
		err = c.tail(args)
	case "result":
		err = c.oneJob(args, func(id string) error { return c.printBody("GET", "/v1/jobs/"+id+"/result", nil) })
	case "metrics":
		err = c.oneJob(args, func(id string) error { return c.printBody("GET", "/v1/jobs/"+id+"/metrics", nil) })
	case "cancel":
		err = c.oneJob(args, func(id string) error { return c.printBody("POST", "/v1/jobs/"+id+"/cancel", nil) })
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "doramctl: %v\n", err)
		os.Exit(1)
	}
}

type client struct {
	base string
	rng  *xrand.Rand // backoff jitter
}

// newClient seeds the backoff jitter from DORAMCTL_SEED when set (tests
// pin it for reproducible retry schedules), else from the wall clock and
// pid so a fleet of concurrently launched clients spreads out.
func newClient(server string) *client {
	seed, err := strconv.ParseUint(os.Getenv("DORAMCTL_SEED"), 10, 64)
	if err != nil || seed == 0 {
		seed = uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32
	}
	return &client{base: strings.TrimRight(server, "/"), rng: xrand.New(seed)}
}

// jobStatus mirrors the service's JobStatus closely enough to drive the
// client (unknown fields are ignored on purpose: older clients keep
// working against newer servers).
type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "cancelled"
}

// Retry policy. Connection errors and gateway errors (502/503/504) get
// maxTransientRetries attempts with jittered exponential backoff; 429
// gets maxQueueRetries honouring the server's Retry-After. A plain 500
// is the job's own failure and is never retried.
const (
	maxTransientRetries = 6
	maxQueueRetries     = 8
	retryBase           = 250 * time.Millisecond
	retryCap            = 10 * time.Second
)

// backoff returns the jittered exponential delay for the given attempt
// (0-based): base·2^attempt, capped, scaled by a random [0.5,1.5) factor.
func (c *client) backoff(attempt int) time.Duration {
	return retry.Backoff{Base: retryBase, Cap: retryCap, Lo: 0.5, Hi: 1.5}.Delay(attempt, c.rng.Float64())
}

func transientStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout
}

// do performs one request and returns the body. Service errors become Go
// errors carrying the server's message; transient failures are retried
// per the policy above.
func (c *client) do(method, path string, body []byte) ([]byte, error) {
	transient, queued := 0, 0
	for {
		req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			if transient >= maxTransientRetries {
				return nil, fmt.Errorf("after %d attempts: %w", transient+1, err)
			}
			delay := c.backoff(transient)
			transient++
			fmt.Fprintf(os.Stderr, "doramctl: %v, retrying in %s\n", err, delay.Round(time.Millisecond))
			time.Sleep(delay)
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			if transient >= maxTransientRetries {
				return nil, fmt.Errorf("after %d attempts: %w", transient+1, err)
			}
			delay := c.backoff(transient)
			transient++
			time.Sleep(delay)
			continue
		}
		switch {
		case resp.StatusCode == http.StatusTooManyRequests && queued < maxQueueRetries:
			// Jitter so a fleet of clients doesn't re-dogpile the queue.
			delay := retry.Jitter(retry.After(resp.Header, 2*time.Second), 0.75, 1.25, c.rng.Float64())
			queued++
			fmt.Fprintf(os.Stderr, "doramctl: queue full, retrying in %s\n", delay.Round(time.Millisecond))
			time.Sleep(delay)
			continue
		case transientStatus(resp.StatusCode) && transient < maxTransientRetries:
			delay := retry.After(resp.Header, c.backoff(transient))
			transient++
			fmt.Fprintf(os.Stderr, "doramctl: HTTP %d, retrying in %s\n", resp.StatusCode, delay.Round(time.Millisecond))
			time.Sleep(delay)
			continue
		}
		if resp.StatusCode >= 300 {
			return nil, errors.New(retry.ErrorMessage(resp.StatusCode, data))
		}
		return data, nil
	}
}

// printBody performs a request and echoes the JSON response to stdout.
func (c *client) printBody(method, path string, body []byte) error {
	data, err := c.do(method, path, body)
	if err != nil {
		return err
	}
	os.Stdout.Write(data)
	return nil
}

func (c *client) health() error {
	data, err := c.do("GET", "/healthz", nil)
	if err != nil {
		return err
	}
	os.Stdout.Write(data)
	return nil
}

// oneJob runs fn against exactly one job-id argument.
func (c *client) oneJob(args []string, fn func(id string) error) error {
	if len(args) != 1 {
		return fmt.Errorf("expected exactly one job id, got %d arguments", len(args))
	}
	return fn(args[0])
}

// readSpec loads a job spec from a file, or stdin for "-".
func readSpec(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

func (c *client) submit(args []string) error {
	wait := false
	if len(args) > 0 && args[0] == "-wait" {
		wait, args = true, args[1:]
	}
	if len(args) != 1 {
		return fmt.Errorf("submit expects one spec file (or - for stdin)")
	}
	spec, err := readSpec(args[0])
	if err != nil {
		return err
	}
	data, err := c.do("POST", "/v1/jobs", spec)
	if err != nil {
		return err
	}
	var st jobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if !wait {
		os.Stdout.Write(data)
		return nil
	}
	final, err := c.wait(st.ID)
	if err != nil {
		return err
	}
	if final.State != "done" {
		return fmt.Errorf("job %s ended %s: %s", final.ID, final.State, final.Error)
	}
	return nil
}

// run submits one spec, waits for it, and prints the result document —
// submit/wait/result in one shot, handy for scripting byte-level
// comparisons of runs.
func (c *client) run(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("run expects one spec file (or - for stdin)")
	}
	spec, err := readSpec(args[0])
	if err != nil {
		return err
	}
	data, err := c.do("POST", "/v1/jobs", spec)
	if err != nil {
		return err
	}
	var st jobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	final, err := c.wait(st.ID)
	if err != nil {
		return err
	}
	if final.State != "done" {
		return fmt.Errorf("job %s ended %s: %s", final.ID, final.State, final.Error)
	}
	return c.printBody("GET", "/v1/jobs/"+final.ID+"/result", nil)
}

func (c *client) sweep(args []string) error {
	wait := false
	if len(args) > 0 && args[0] == "-wait" {
		wait, args = true, args[1:]
	}
	if len(args) == 0 {
		return fmt.Errorf("sweep expects at least one spec file")
	}
	var req struct {
		Specs []json.RawMessage `json:"specs"`
	}
	for _, path := range args {
		spec, err := readSpec(path)
		if err != nil {
			return err
		}
		req.Specs = append(req.Specs, json.RawMessage(spec))
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	data, err := c.do("POST", "/v1/sweeps", body)
	if err != nil {
		return err
	}
	var resp struct {
		Jobs     []*jobStatus `json:"jobs"`
		Errors   []string     `json:"errors"`
		Rejected int          `json:"rejected"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if !wait {
		os.Stdout.Write(data)
		if resp.Rejected > 0 {
			return fmt.Errorf("%d of %d specs rejected", resp.Rejected, len(req.Specs))
		}
		return nil
	}
	failed := 0
	for i, job := range resp.Jobs {
		if job == nil {
			fmt.Fprintf(os.Stderr, "doramctl: spec %s rejected: %s\n", args[i], resp.Errors[i])
			failed++
			continue
		}
		final, err := c.wait(job.ID)
		if err != nil {
			return err
		}
		if final.State != "done" {
			fmt.Fprintf(os.Stderr, "doramctl: job %s (%s) ended %s: %s\n", final.ID, args[i], final.State, final.Error)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d sweep jobs did not finish", failed, len(req.Specs))
	}
	return nil
}

// pollBase/pollCap bound the wait-polling cadence: 100ms doubling per
// quiet poll, capped at 2s, jittered so a fleet of waiting clients
// spreads out instead of polling in lockstep.
const (
	pollBase = 100 * time.Millisecond
	pollCap  = 2 * time.Second
)

// pollDelay is the jittered exponential wait-poll schedule for the given
// consecutive-quiet-poll count (0-based).
func (c *client) pollDelay(quiet int) time.Duration {
	return retry.Backoff{Base: pollBase, Cap: pollCap, Lo: 0.5, Hi: 1.5}.Delay(quiet, c.rng.Float64())
}

// wait polls a job until it is terminal, printing each state change, and
// returns the final status. The poll interval backs off exponentially
// (with jitter) while the state is unchanged and resets on progress.
func (c *client) wait(id string) (jobStatus, error) {
	last := ""
	quiet := 0
	for {
		data, err := c.do("GET", "/v1/jobs/"+id, nil)
		if err != nil {
			return jobStatus{}, err
		}
		var st jobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			return jobStatus{}, fmt.Errorf("decoding status: %w", err)
		}
		if st.State != last {
			fmt.Fprintf(os.Stderr, "doramctl: %s %s\n", id, st.State)
			last = st.State
			quiet = 0
		}
		if terminal(st.State) {
			return st, nil
		}
		time.Sleep(c.pollDelay(quiet))
		quiet++
	}
}

// waitFollow waits for a job by consuming its SSE event stream, falling
// back to jittered polling when streaming is unavailable (old server, a
// proxy stripping the stream, mid-transfer disconnects).
func (c *client) waitFollow(id string) (jobStatus, error) {
	st, err := c.followJob(id)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doramctl: event stream unavailable (%v), falling back to polling\n", err)
		return c.wait(id)
	}
	return st, nil
}

// followJob consumes one job's event stream until the terminal event.
func (c *client) followJob(id string) (jobStatus, error) {
	resp, err := http.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return jobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return jobStatus{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		return jobStatus{}, fmt.Errorf("server does not stream events (Content-Type %q)", resp.Header.Get("Content-Type"))
	}
	sc := simsvc.NewSSEScanner(resp.Body)
	last := ""
	for {
		raw, err := sc.Next()
		if err != nil {
			return jobStatus{}, fmt.Errorf("stream ended before the job did: %w", err)
		}
		ev, err := raw.Decode()
		if err != nil || ev.Kind != simsvc.EventJob {
			continue
		}
		state := string(ev.State)
		if state != last {
			fmt.Fprintf(os.Stderr, "doramctl: %s %s\n", id, state)
			last = state
		}
		if terminal(state) {
			return jobStatus{ID: id, State: state, Error: ev.Error}, nil
		}
	}
}

// tail streams service events to stdout: every event when called bare,
// or only the given jobs' transitions (exiting once all are terminal).
func (c *client) tail(args []string) error {
	var pending map[string]bool
	if len(args) > 0 {
		pending = make(map[string]bool)
		for _, id := range args {
			data, err := c.do("GET", "/v1/jobs/"+id, nil)
			if err != nil {
				return err
			}
			var st jobStatus
			if err := json.Unmarshal(data, &st); err != nil {
				return fmt.Errorf("decoding status: %w", err)
			}
			fmt.Printf("%s %s\n", st.ID, st.State)
			if !terminal(st.State) {
				pending[id] = true
			}
		}
		if len(pending) == 0 {
			return nil
		}
	}

	var cursor uint64
	attempts := 0
	for {
		progressed, err := c.tailOnce(&cursor, pending)
		if err == nil {
			return nil // all followed jobs terminal
		}
		if progressed {
			attempts = 0 // the cursor moved; this outage is a fresh one
		}
		if attempts >= maxTransientRetries {
			return fmt.Errorf("event stream: %w", err)
		}
		delay := c.backoff(attempts)
		attempts++
		fmt.Fprintf(os.Stderr, "doramctl: stream interrupted (%v), reconnecting in %s\n", err, delay.Round(time.Millisecond))
		time.Sleep(delay)
	}
}

// tailOnce consumes one /events stream, resuming from cursor, rendering
// each event, and pruning pending jobs as they reach terminal states.
// Returns a nil error only when every followed job is terminal; a bare
// tail (pending == nil) streams until the connection breaks. progressed
// reports whether any event arrived, so the caller can reset its
// reconnect budget.
func (c *client) tailOnce(cursor *uint64, pending map[string]bool) (progressed bool, err error) {
	start := *cursor
	err = simsvc.FollowEvents(context.Background(), http.DefaultClient, c.base, cursor, func(ev simsvc.Event) bool {
		// A coordinator's stream also carries its workers' events (Node
		// set), whose job ids are the workers' own.
		if pending != nil && (ev.Kind != simsvc.EventJob || ev.Node != "" || !pending[ev.JobID]) {
			return true
		}
		fmt.Println(renderEvent(ev))
		if pending != nil && ev.State.Terminal() {
			delete(pending, ev.JobID)
			return len(pending) > 0
		}
		return true
	})
	return *cursor != start, err
}

// renderEvent formats one bus event as a tail output line.
func renderEvent(ev simsvc.Event) string {
	var b strings.Builder
	b.WriteString(ev.Time.Format(time.RFC3339))
	if ev.Node != "" {
		fmt.Fprintf(&b, " [%s]", ev.Node)
	}
	if ev.Kind == simsvc.EventService {
		fmt.Fprintf(&b, " service %s", ev.Message)
	} else {
		fmt.Fprintf(&b, " %s %s", ev.JobID, ev.State)
		switch {
		case ev.CacheHit:
			b.WriteString(" (cache hit)")
		case ev.Coalesced:
			b.WriteString(" (coalesced)")
		}
		if ev.Error != "" {
			fmt.Fprintf(&b, ": %s", ev.Error)
		}
	}
	fmt.Fprintf(&b, " [queue %d, running %d, completed %d]",
		ev.QueueDepth, ev.Running, ev.Completed)
	return b.String()
}
