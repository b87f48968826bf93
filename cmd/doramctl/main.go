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
// Every request goes through the shared job client (internal/retry), so
// doramctl retries exactly as `experiments -endpoint` does. Connection
// errors and 502/503/504 are retried six times with jittered exponential
// backoff (250ms doubling to a 10s cap, or the server's Retry-After); a
// 429 (queue full) waits for the server's Retry-After (2s if absent,
// capped at 30s), jittered, up to 20 times. Any other error status, a
// plain 500 included (the job itself failed), is final. A sweep's 429
// keeps the jobs it accepted and resubmits only the specs turned away for
// backpressure. wait polls from 50ms doubling to a 2s cap, jittered and
// reset whenever the job's state changes; -follow replaces polling with
// the server's SSE event stream and falls back to polling if streaming is
// unavailable. Retries and state changes are noted on stderr.
package main

import (
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
	get := func(path string) error { return printBody(c.Do("GET", path, nil)) }
	var err error
	switch cmd {
	case "health":
		err = get("/healthz")
	case "varz":
		err = get("/varz")
	case "nodes":
		err = get("/v1/cluster/nodes")
	case "submit":
		err = c.submit(args)
	case "run":
		err = c.run(args)
	case "sweep":
		err = c.sweep(args)
	case "status":
		err = oneJob(args, func(id string) error { return get("/v1/jobs/" + id) })
	case "wait":
		if len(args) > 0 && (args[0] == "-follow" || args[0] == "--follow") {
			err = oneJob(args[1:], c.waitFollow)
		} else {
			err = oneJob(args, func(id string) error { _, err := c.Wait(id); return err })
		}
	case "tail":
		err = c.tail(args)
	case "result":
		err = oneJob(args, func(id string) error { return get("/v1/jobs/" + id + "/result") })
	case "metrics":
		err = oneJob(args, func(id string) error { return get("/v1/jobs/" + id + "/metrics") })
	case "cancel":
		err = oneJob(args, func(id string) error { return printBody(c.Do("POST", "/v1/jobs/"+id+"/cancel", nil)) })
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "doramctl: %v\n", err)
		os.Exit(1)
	}
}

// client is doramctl's view of the service: the shared job client, plus
// the base URL its event streams open against.
type client struct {
	*retry.Client
	base string
}

// newClient seeds the backoff jitter from DORAMCTL_SEED when set (tests
// pin it for reproducible retry schedules), else from the wall clock and
// pid so a fleet of concurrently launched clients spreads out. Retries and
// job state changes are noted on stderr.
func newClient(server string) *client {
	seed, err := strconv.ParseUint(os.Getenv("DORAMCTL_SEED"), 10, 64)
	if err != nil || seed == 0 {
		seed = uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32
	}
	base := strings.TrimRight(server, "/")
	return &client{Client: retry.NewClient(base, nil, xrand.New(seed).Float64, notice), base: base}
}

// notice writes one progress line to stderr: a retry, a job state change.
func notice(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "doramctl: "+format+"\n", args...)
}

// printBody echoes a response body to stdout.
func printBody(data []byte, err error) error {
	if err != nil {
		return err
	}
	os.Stdout.Write(data)
	return nil
}

// oneJob runs fn against exactly one job-id argument.
func oneJob(args []string, fn func(id string) error) error {
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
	job, data, err := c.Submit(spec)
	if err != nil || !wait {
		return printBody(data, err)
	}
	if job, err = c.Wait(job.ID); err != nil {
		return err
	}
	return job.Err()
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
	return printBody(c.Run(spec))
}

// sweep submits a batch in one request. A 429 means the queue filled part
// way through: the jobs it accepted stand, and only the specs it turned
// away for backpressure are resubmitted, one at a time under the client's
// 429 policy — re-posting the batch would orphan the accepted jobs.
func (c *client) sweep(args []string) error {
	wait := false
	if len(args) > 0 && args[0] == "-wait" {
		wait, args = true, args[1:]
	}
	if len(args) == 0 {
		return fmt.Errorf("sweep expects at least one spec file")
	}
	req := simsvc.SweepRequest{Specs: make([]json.RawMessage, len(args))}
	for i, path := range args {
		spec, err := readSpec(path)
		if err != nil {
			return err
		}
		req.Specs[i] = spec
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	code, data, _, err := c.Send("POST", "/v1/sweeps", body)
	if err != nil {
		return err
	}
	var resp simsvc.SweepResponse
	if json.Unmarshal(data, &resp) != nil || len(resp.Jobs) != len(args) {
		return errors.New(retry.ErrorMessage(code, data))
	}
	if len(resp.Errors) != len(args) { // omitted when nothing was rejected
		resp.Errors = make([]string, len(args))
	}
	if code == http.StatusTooManyRequests {
		for i, job := range resp.Jobs {
			if job != nil || !simsvc.IsQueueFull(resp.Errors[i]) {
				continue
			}
			var st simsvc.JobStatus
			_, data, err := c.Submit(req.Specs[i])
			if err == nil {
				err = json.Unmarshal(data, &st)
			}
			if err != nil {
				resp.Errors[i] = err.Error()
				continue
			}
			resp.Jobs[i], resp.Errors[i] = &st, ""
			resp.Rejected--
		}
	}
	if resp.Rejected == 0 {
		resp.Errors = nil
	}
	if !wait {
		out, err := json.MarshalIndent(resp, "", "  ")
		if err != nil {
			return err
		}
		os.Stdout.Write(append(out, '\n'))
		if resp.Rejected > 0 {
			return fmt.Errorf("%d of %d specs rejected", resp.Rejected, len(args))
		}
		return nil
	}
	failed := 0
	for i, job := range resp.Jobs {
		if job == nil {
			notice("spec %s rejected: %s", args[i], resp.Errors[i])
			failed++
			continue
		}
		final, err := c.Wait(job.ID)
		if err != nil {
			return err
		}
		if err := final.Err(); err != nil {
			notice("%v (%s)", err, args[i])
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d sweep jobs did not finish", failed, len(args))
	}
	return nil
}

// waitFollow waits for a job by consuming its SSE event stream, falling
// back to polling when streaming is unavailable (old server, a proxy
// stripping the stream, mid-transfer disconnects).
func (c *client) waitFollow(id string) error {
	var cursor uint64
	var last simsvc.State
	// The job's stream lives at {base}/v1/jobs/{id}/events and ends after
	// its terminal event.
	err := simsvc.FollowEvents(context.Background(), http.DefaultClient, c.base+"/v1/jobs/"+id, &cursor, func(ev simsvc.Event) bool {
		if ev.Kind != simsvc.EventJob {
			return true
		}
		if ev.State != last {
			notice("%s %s", id, ev.State)
			last = ev.State
		}
		return !ev.State.Terminal()
	})
	if err != nil {
		notice("event stream unavailable (%v), falling back to polling", err)
		_, err = c.Wait(id)
	}
	return err
}

// tail streams service events to stdout: every event when called bare,
// or only the given jobs' transitions (exiting once all are terminal).
func (c *client) tail(args []string) error {
	var pending map[string]bool
	if len(args) > 0 {
		pending = make(map[string]bool)
		for _, id := range args {
			st, err := c.Status(id)
			if err != nil {
				return err
			}
			fmt.Printf("%s %s\n", st.ID, st.State)
			if !st.Terminal() {
				pending[id] = true
			}
		}
		if len(pending) == 0 {
			return nil
		}
	}
	var cursor uint64
	return c.Stream(func() (bool, error) {
		start := cursor
		err := simsvc.FollowEvents(context.Background(), http.DefaultClient, c.base, &cursor, func(ev simsvc.Event) bool {
			// A coordinator's stream also carries its workers' events
			// (Node set), whose job ids are the workers' own.
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
		return cursor != start, err
	})
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
