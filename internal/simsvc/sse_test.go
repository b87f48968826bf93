package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"
)

// collectJobEvents tails url until the stream ends, returning the decoded
// bus events in arrival order.
func collectJobEvents(t *testing.T, client *http.Client, url, lastEventID string) []Event {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("get %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("get %s: status %d: %s", url, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != SSEContentType {
		t.Fatalf("content-type = %q, want %q", ct, SSEContentType)
	}
	var events []Event
	sc := NewSSEScanner(resp.Body)
	for {
		raw, err := sc.Next()
		if err == io.EOF {
			return events
		}
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		ev, err := raw.Decode()
		if err != nil {
			t.Fatalf("decode %q: %v", raw.Data, err)
		}
		events = append(events, ev)
	}
}

// TestSSEJobStreamOrdering submits a job and tails its event stream: the
// transitions must arrive in lifecycle order with strictly increasing
// sequence numbers, and the stream must end cleanly (clean teardown) after
// the terminal event — the client's read loop returns EOF without a
// timeout or disconnect.
func TestSSEJobStreamOrdering(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{Workers: 1, RunSim: blockingSim(nil, release)})
	defer closeService(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	job, err := s.Submit(specWithSeed(1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	done := make(chan []Event, 1)
	go func() {
		done <- collectJobEvents(t, srv.Client(),
			srv.URL+"/v1/jobs/"+job.ID()+"/events", "")
	}()
	waitState(t, s, job.ID(), StateRunning)
	close(release)

	events := <-done
	var states []State
	for i, ev := range events {
		if ev.Kind != EventJob || ev.JobID != job.ID() {
			t.Errorf("event %d: kind=%q job=%q, want job event for %q", i, ev.Kind, ev.JobID, job.ID())
		}
		if i > 0 && ev.Seq <= events[i-1].Seq {
			t.Errorf("event %d: seq %d not after %d", i, ev.Seq, events[i-1].Seq)
		}
		states = append(states, ev.State)
	}
	// The tail may attach after "queued" was published but always within
	// the replay ring, so the full lifecycle must be present.
	want := []State{StateQueued, StateRunning, StateDone}
	if len(states) != len(want) {
		t.Fatalf("states = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("states = %v, want %v", states, want)
		}
	}
	last := events[len(events)-1]
	if last.Completed != 1 {
		t.Errorf("terminal event completed gauge = %d, want 1", last.Completed)
	}
}

// TestSSEServiceStreamGauges tails the service-wide stream across a
// two-job sweep and checks the load gauges ride along: queue depth while
// the worker is busy, and a completed count that reaches the sweep size
// on the final terminal event — tail clients see sweep progress without
// polling.
func TestSSEServiceStreamGauges(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 2)
	s := New(Config{Workers: 1, QueueDepth: 4, RunSim: blockingSim(started, release)})
	defer closeService(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var ids []string
	for seed := uint64(1); seed <= 2; seed++ {
		job, err := s.Submit(specWithSeed(seed))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		ids = append(ids, job.ID())
	}
	<-started // first job running, second queued
	close(release)
	for _, id := range ids {
		waitState(t, s, id, StateDone)
	}

	// Replay-only read: everything already happened; the ring serves it.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/events", nil)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatalf("get /events: %v", err)
	}
	defer resp.Body.Close()

	sc := NewSSEScanner(resp.Body)
	var events []Event
	for len(events) < 6 { // 2 jobs x (queued, running, done)
		raw, err := sc.Next()
		if err != nil {
			t.Fatalf("scan after %d events: %v", len(events), err)
		}
		ev, err := raw.Decode()
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		events = append(events, ev)
	}
	cancel()

	sawQueueDepth := false
	for _, ev := range events {
		if ev.QueueDepth > 0 {
			sawQueueDepth = true
		}
	}
	if !sawQueueDepth {
		t.Errorf("no event carried a positive queue depth; events: %+v", events)
	}
	if last := events[len(events)-1]; last.Completed != 2 {
		t.Errorf("final completed gauge = %d, want 2", last.Completed)
	}
}

// TestSSEHeartbeatCadence drives the stream's heartbeat timer by hand
// through the injectable After hook: each fire must produce exactly one
// comment line, and the timer must re-arm with the configured cadence —
// all without wall-clock sleeps.
func TestSSEHeartbeatCadence(t *testing.T) {
	hb := make(chan time.Time)
	arms := make(chan time.Duration, 16)
	s := New(Config{
		Workers:      1,
		SSEHeartbeat: 42 * time.Second,
		After: func(d time.Duration) <-chan time.Time {
			arms <- d
			return hb
		},
	})
	defer closeService(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/events", nil)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatalf("get /events: %v", err)
	}
	defer resp.Body.Close()

	if d := <-arms; d != 42*time.Second {
		t.Fatalf("first arm duration = %v, want 42s", d)
	}

	// Fire the timer three times; each fire must re-arm and emit one
	// comment line. Reading a line at a time proves the bytes flush
	// promptly rather than sitting in a buffer.
	lines := make(chan string)
	go func() {
		buf := make([]byte, 256)
		for {
			n, err := resp.Body.Read(buf)
			if err != nil {
				close(lines)
				return
			}
			lines <- string(buf[:n])
		}
	}()
	for i := 0; i < 3; i++ {
		hb <- time.Time{}
		if d := <-arms; d != 42*time.Second {
			t.Fatalf("re-arm %d duration = %v, want 42s", i, d)
		}
		select {
		case got := <-lines:
			if got != ": hb\n\n" {
				t.Fatalf("heartbeat %d: read %q, want %q", i, got, ": hb\n\n")
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("heartbeat %d never arrived", i)
		}
	}
}

// TestSSELastEventIDResume disconnects mid-stream and reconnects with
// Last-Event-ID: the second read must resume exactly after the cursor —
// no replayed duplicates, no gaps — and still end cleanly at the job's
// terminal event.
func TestSSELastEventIDResume(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{Workers: 1, RunSim: blockingSim(nil, release)})
	defer closeService(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	job, err := s.Submit(specWithSeed(1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, s, job.ID(), StateRunning)

	// First connection: read queued+running, then drop the stream.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET",
		srv.URL+"/v1/jobs/"+job.ID()+"/events", nil)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatalf("first get: %v", err)
	}
	sc := NewSSEScanner(resp.Body)
	var cursor string
	for i := 0; i < 2; i++ {
		raw, err := sc.Next()
		if err != nil {
			t.Fatalf("first stream event %d: %v", i, err)
		}
		cursor = raw.ID
	}
	cancel()
	resp.Body.Close()

	close(release)
	waitState(t, s, job.ID(), StateDone)

	// Reconnect with the cursor: only events after it may arrive.
	events := collectJobEvents(t, srv.Client(),
		srv.URL+"/v1/jobs/"+job.ID()+"/events", cursor)
	if len(events) != 1 {
		t.Fatalf("resumed stream delivered %d events (%+v), want 1", len(events), events)
	}
	after, _ := strconv.ParseUint(cursor, 10, 64)
	if ev := events[0]; ev.State != StateDone || ev.Seq <= after {
		t.Errorf("resumed event = state %s seq %d, want done with seq > %s", ev.State, ev.Seq, cursor)
	}
}

// TestSSEAlreadyTerminalJob opens a job stream after the job finished and
// its transitions were evicted from a tiny replay ring: the handler must
// synthesize the terminal event so the client never hangs on a stream
// that will produce nothing.
func TestSSEAlreadyTerminalJob(t *testing.T) {
	release := make(chan struct{})
	close(release)
	s := New(Config{Workers: 1, EventHistory: 1, RunSim: blockingSim(nil, release)})
	defer closeService(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	job, err := s.Submit(specWithSeed(1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, s, job.ID(), StateDone)
	// Push the job's terminal transition out of the one-slot ring.
	s.bus.Publish(Event{Kind: EventService, Message: "filler"})

	events := collectJobEvents(t, srv.Client(),
		srv.URL+"/v1/jobs/"+job.ID()+"/events", "")
	if len(events) != 1 {
		t.Fatalf("stream delivered %d events (%+v), want 1 synthesized terminal", len(events), events)
	}
	if ev := events[0]; ev.State != StateDone || ev.JobID != job.ID() {
		t.Errorf("synthesized event = %+v, want done for %s", ev, job.ID())
	}
}

// TestSSETeardownOnDrain: a live service-wide stream must end (EOF, not
// hang) when the service drains, after delivering the draining marker.
func TestSSETeardownOnDrain(t *testing.T) {
	s := New(Config{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/events")
	if err != nil {
		t.Fatalf("get /events: %v", err)
	}
	defer resp.Body.Close()

	done := make(chan []Event, 1)
	go func() {
		var events []Event
		sc := NewSSEScanner(resp.Body)
		for {
			raw, err := sc.Next()
			if err != nil {
				done <- events
				return
			}
			if ev, err := raw.Decode(); err == nil {
				events = append(events, ev)
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case events := <-done:
		foundDrain := false
		for _, ev := range events {
			if ev.Kind == EventService && ev.Message == "draining" {
				foundDrain = true
			}
		}
		if !foundDrain {
			t.Errorf("stream ended without the draining marker; events: %+v", events)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not end after service drain")
	}
}

// TestSSEUnknownJob404s: the job stream endpoint must reject unknown IDs
// up front with a JSON 404, not commit to an empty event stream.
func TestSSEUnknownJob404s(t *testing.T) {
	s := New(Config{Workers: 1})
	defer closeService(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/v1/jobs/nope/events")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// TestEventBusDropsSlowSubscriber: a subscriber that stops taking events
// is dropped (its feed ends) rather than blocking publishers, and recovers
// by resubscribing from its last seen cursor.
func TestEventBusDropsSlowSubscriber(t *testing.T) {
	bus := NewEventBus(4)
	sub := bus.Subscribe(0)
	// The subscription's backlog bound is replay(0)+ringCap; overflow it
	// without ever taking.
	for i := 0; i < 10; i++ {
		bus.Publish(Event{Kind: EventService, Message: fmt.Sprintf("m%d", i)})
	}
	select {
	case <-sub.Ready():
	default:
		t.Fatal("subscriber neither ended nor readable after overflow")
	}
	evs, open := sub.Take(nil)
	if open {
		t.Fatal("subscriber still open after overflow")
	}
	var last uint64
	for _, ev := range evs {
		last = ev.Seq
	}
	if last != 4 {
		t.Errorf("dropped subscriber kept events through seq %d, want its bound of 4", last)
	}
	// Resubscribe from the cursor: the ring retains the last 4 events.
	sub2 := bus.Subscribe(last)
	defer sub2.Close()
	var got []uint64
	evs, _ = sub2.Take(nil)
	for _, ev := range evs {
		got = append(got, ev.Seq)
	}
	if len(got) == 0 {
		t.Fatal("resubscribe replayed nothing")
	}
	for i, seq := range got {
		if seq <= last {
			t.Errorf("replayed seq %d at %d not after cursor %d", seq, i, last)
		}
		if i > 0 && seq != got[i-1]+1 {
			t.Errorf("replay gap: %v", got)
		}
	}
	if got[len(got)-1] != bus.LastSeq() {
		t.Errorf("replay ends at %d, want last seq %d", got[len(got)-1], bus.LastSeq())
	}
}

// TestEventBusReplayAcrossWrap: the replay ring is circular; a subscriber
// resuming from any cursor gets exactly the retained events after it, in
// order, wherever the ring's head stands.
func TestEventBusReplayAcrossWrap(t *testing.T) {
	const ringCap = 5
	bus := NewEventBus(ringCap)
	for n := uint64(1); n <= 13; n++ {
		bus.Publish(Event{Kind: EventService})
		for after := uint64(0); after <= n+1; after++ {
			sub := bus.Subscribe(after)
			evs, _ := sub.Take(nil)
			sub.Close()
			first := max(after+1, n-min(n, ringCap)+1)
			var want []uint64
			for seq := first; seq <= n; seq++ {
				want = append(want, seq)
			}
			var got []uint64
			for _, ev := range evs {
				got = append(got, ev.Seq)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("after %d published, Subscribe(%d) replayed %v, want %v", n, after, got, want)
			}
		}
	}
}

// TestEventBusSubscribeSizedByBacklog: a subscriber whose cursor is
// current costs the same bytes whatever the ring size; its queue grows
// only with the events it has yet to take.
func TestEventBusSubscribeSizedByBacklog(t *testing.T) {
	perSubscribe := func(ringCap int) float64 {
		bus := NewEventBus(ringCap)
		for i := 0; i < ringCap; i++ {
			bus.Publish(Event{Kind: EventService})
		}
		last := bus.LastSeq()
		return bytesPerRun(200, func() { bus.Subscribe(last).Close() })
	}
	// The slack absorbs stray allocations by other goroutines; a
	// ring-sized buffer would be 1,024 events of well over 100 B each.
	small, full := perSubscribe(16), perSubscribe(DefaultEventHistory)
	if full > small+64 {
		t.Errorf("Subscribe on a current cursor allocates %.0f B with a %d-event ring, %.0f B with a 16-event one",
			full, DefaultEventHistory, small)
	}
}

// bytesPerRun returns the heap bytes one call of f allocates, averaged
// over runs after a warm-up call, in the manner of testing.AllocsPerRun.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestWriteSSEMatchesMarshal: an event's wire form is its id, kind and
// json.Marshal bytes on one data line, whichever pooled encoder wrote it
// and whatever it wrote before.
func TestWriteSSEMatchesMarshal(t *testing.T) {
	evs := []Event{
		{Seq: 1, Time: time.Unix(5, 7).UTC(), Kind: EventService, Message: "draining <now> & later"},
		{Seq: 1 << 40, Time: time.Unix(9, 0), Kind: EventJob, Node: "http://w1", JobID: "j-00000002",
			State: StateFailed, Error: `bad "spec"`, QueueDepth: 3, Running: 1, Completed: 12},
	}
	// Leave a large document's bytes behind in the pool first.
	if _, err := encodeJSON(SweepResponse{Errors: make([]string, 5000)}); err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, data)
		var got bytes.Buffer
		if err := writeSSE(&got, ev); err != nil {
			t.Fatal(err)
		}
		if got.String() != want {
			t.Errorf("writeSSE wrote\n%q\nwant\n%q", got.String(), want)
		}
	}
}
