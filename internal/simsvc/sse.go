package simsvc

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"doram/internal/retry"
)

// SSEContentType is the MIME type of a Server-Sent-Event stream.
const SSEContentType = "text/event-stream"

// DefaultSSEHeartbeat is the comment-line heartbeat cadence when
// Config.SSEHeartbeat is unset; it keeps idle streams alive through
// proxies that reap quiet connections.
const DefaultSSEHeartbeat = 15 * time.Second

// StreamOptions tunes ServeEventStream.
type StreamOptions struct {
	// JobID filters the stream to one job; "" streams everything. A
	// filtered stream ends after the job's terminal event.
	JobID string
	// Heartbeat is the comment-line cadence; 0 means DefaultSSEHeartbeat.
	Heartbeat time.Duration
	// After overrides the heartbeat timer source (tests drive it with a
	// hand-fired channel under a fake clock); nil means time.After.
	After func(time.Duration) <-chan time.Time
	// Terminal reports a synthesized terminal event for a job already
	// finished when the stream opens — the replay ring may have evicted
	// the real transition. Nil disables synthesis.
	Terminal func(jobID string) (Event, bool)
}

// lastEventID extracts the resume cursor: the standard Last-Event-ID
// header (set by browsers and this repo's clients on reconnect), with an
// `after` query parameter as the curl-friendly equivalent.
func lastEventID(r *http.Request) uint64 {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("after")
	}
	id, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0
	}
	return id
}

// writeSSE renders one event in the wire format: id, event name, one JSON
// data line, blank terminator.
func writeSSE(w io.Writer, ev Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, data)
	return err
}

// ServeEventStream streams bus events to one client as Server-Sent Events:
// replay from Last-Event-ID (or ?after=N), then live events, with comment
// heartbeats between. The stream ends when the client disconnects, the bus
// closes (server drain), or — on a job-filtered stream — the job's
// terminal event has been sent. Exported so the cluster coordinator can
// serve its merged stream through the identical wire behaviour.
func ServeEventStream(w http.ResponseWriter, r *http.Request, bus *EventBus, opt StreamOptions) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, fmt.Errorf("simsvc: response writer cannot stream"))
		return
	}
	if opt.Heartbeat <= 0 {
		opt.Heartbeat = DefaultSSEHeartbeat
	}
	after := opt.After
	if after == nil {
		after = time.After
	}
	cursor := lastEventID(r)

	sub := bus.Subscribe(cursor)
	defer sub.Close()

	w.Header().Set("Content-Type", SSEContentType)
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// A job-filtered stream for an already-terminal job: the terminal
	// transition is either in the replay (written below) or evicted from
	// the ring. Synthesize it for first-time subscribers so they never
	// hang on a job that will produce no more events; a resuming client
	// (cursor > 0) already saw it.
	var synth *Event
	if opt.JobID != "" && opt.Terminal != nil && cursor == 0 {
		if ev, terminal := opt.Terminal(opt.JobID); terminal {
			synth = &ev
		}
	}

	emit := func(ev Event) (done bool, err error) {
		// A job-filtered stream follows this service's job: events fanned
		// in from other nodes (Node set) reuse job ids from their own
		// sequences.
		if opt.JobID != "" && (ev.JobID != opt.JobID || ev.Node != "") {
			return false, nil
		}
		if err := writeSSE(w, ev); err != nil {
			return true, err
		}
		flusher.Flush()
		return opt.JobID != "" && ev.State.Terminal(), nil
	}

	// Drain the buffered replay first so the synthesized terminal check
	// below sees everything the ring could offer.
	for {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				return
			}
			if done, err := emit(ev); done || err != nil {
				return
			}
			continue
		default:
		}
		break
	}
	if synth != nil {
		// Nothing in the replay closed the job (else emit returned), so
		// the client needs the synthesized terminal event.
		synth.Seq = bus.LastSeq()
		if done, err := emit(*synth); done || err != nil {
			return
		}
	}

	hb := after(opt.Heartbeat)
	for {
		select {
		case <-r.Context().Done():
			return
		case <-hb:
			if _, err := io.WriteString(w, ": hb\n\n"); err != nil {
				return
			}
			flusher.Flush()
			hb = after(opt.Heartbeat)
		case ev, ok := <-sub.C:
			if !ok {
				return // bus closed (drain) or subscriber dropped
			}
			if done, err := emit(ev); done || err != nil {
				return
			}
		}
	}
}

// ---- client side ----

// SSEEvent is one parsed server-sent event as received off the wire.
type SSEEvent struct {
	ID    string // "id:" field, the resume cursor
	Event string // "event:" field (the Event.Kind)
	Data  string // "data:" payload, JSON for this repo's streams
}

// Decode unmarshals the event payload into the bus event type.
func (e SSEEvent) Decode() (Event, error) {
	var ev Event
	err := json.Unmarshal([]byte(e.Data), &ev)
	return ev, err
}

// FollowEvents opens one GET {base}/events stream, resuming after
// *cursor (sent as Last-Event-ID when non-zero), and calls fn with each
// decoded event, advancing *cursor past every event received. It returns
// nil once fn returns false, and otherwise the error that ended the
// stream — callers reconnect from *cursor, and the server's replay ring
// fills the gap. It is the client side of doramctl tail and of a cluster
// coordinator's worker event fan-in.
func FollowEvents(ctx context.Context, hc *http.Client, base string, cursor *uint64, fn func(Event) bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/events", nil)
	if err != nil {
		return err
	}
	if *cursor > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(*cursor, 10))
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return errors.New(retry.ErrorMessage(resp.StatusCode, data))
	}
	sc := NewSSEScanner(resp.Body)
	for {
		raw, err := sc.Next()
		if err != nil {
			return err
		}
		if seq, err := strconv.ParseUint(raw.ID, 10, 64); err == nil {
			*cursor = seq
		}
		if ev, err := raw.Decode(); err == nil && !fn(ev) {
			return nil
		}
	}
}

// SSEScanner incrementally parses a Server-Sent-Event stream — the shared
// client for doramctl tail/wait and the cluster coordinator's worker
// stream fan-in. Comment lines (heartbeats) are skipped.
type SSEScanner struct {
	sc *bufio.Scanner
}

// NewSSEScanner wraps a response body (or any reader) for event parsing.
func NewSSEScanner(r io.Reader) *SSEScanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &SSEScanner{sc: sc}
}

// Next returns the next event, or io.EOF at end of stream.
func (s *SSEScanner) Next() (SSEEvent, error) {
	var ev SSEEvent
	var data []string
	seen := false
	for s.sc.Scan() {
		line := s.sc.Text()
		switch {
		case line == "":
			if seen {
				ev.Data = strings.Join(data, "\n")
				return ev, nil
			}
			// Blank separator with no fields yet (e.g. after a comment):
			// keep scanning.
		case strings.HasPrefix(line, ":"):
			// Comment / heartbeat.
		case strings.HasPrefix(line, "id:"):
			ev.ID, seen = strings.TrimSpace(line[len("id:"):]), true
		case strings.HasPrefix(line, "event:"):
			ev.Event, seen = strings.TrimSpace(line[len("event:"):]), true
		case strings.HasPrefix(line, "data:"):
			data, seen = append(data, strings.TrimSpace(line[len("data:"):])), true
		}
	}
	if err := s.sc.Err(); err != nil {
		return SSEEvent{}, err
	}
	if seen {
		ev.Data = strings.Join(data, "\n")
		return ev, nil
	}
	return SSEEvent{}, io.EOF
}
