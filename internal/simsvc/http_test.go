package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"doram"
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

// TestPooledEncoderMatchesMarshalIndent: every document the pooled
// encoder serves, through encodeJSON or WriteJSON, is json.MarshalIndent's
// plus a newline, including documents too large to go back to the pool,
// while eight goroutines share the pool (run it under -race).
func TestPooledEncoderMatchesMarshalIndent(t *testing.T) {
	res, err := doram.Simulate(doram.Params{Scheme: doram.SchemeDORAM, Benchmark: "face", TraceLen: 600,
		Seed: 5, Trace: true, Metrics: true}.SimConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec := specWithSeed(5).Canonical()
	cases := []any{
		JobStatus{ID: "j-00000007", State: StateDone, SpecHash: spec.Hash(), Spec: spec,
			History: []Transition{{State: StateQueued, At: time.Unix(1, 5)}, {State: StateRunning, At: time.Unix(2, 0)},
				{State: StateDone, At: time.Unix(3, 9)}},
			Placement: Placement{Node: "http://10.0.0.2:8080", RemoteID: "j-00000003", Attempts: 2, Hedged: true}},
		apiError{Error: `simsvc: unknown job "<j>&"`},
		res,
		res.Metrics,
	}
	// A sweep response big enough to bypass the pool on its way out.
	sweep := SweepResponse{Jobs: make([]*JobStatus, 200)}
	for i := range sweep.Jobs {
		st := cases[0].(JobStatus)
		sweep.Jobs[i] = &st
	}
	cases = append(cases, sweep)
	want := make([][]byte, len(cases))
	big := false
	for i, v := range cases {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatalf("case %d: MarshalIndent: %v", i, err)
		}
		want[i] = append(data, '\n')
		big = big || len(data) > maxPooledDoc
	}
	if !big {
		t.Fatalf("no case exceeds the %d-byte pool cap", maxPooledDoc)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8*len(cases))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for j := range cases {
					i := (g + j) % len(cases)
					if got, err := encodeJSON(cases[i]); err != nil || !bytes.Equal(got, want[i]) {
						errs <- fmt.Sprintf("case %d: encodeJSON differs from MarshalIndent (err %v)", i, err)
						return
					}
					rec := httptest.NewRecorder()
					WriteJSON(rec, 200, cases[i])
					if !bytes.Equal(rec.Body.Bytes(), want[i]) ||
						rec.Header().Get("Content-Length") != strconv.Itoa(len(want[i])) {
						errs <- fmt.Sprintf("case %d: WriteJSON differs from MarshalIndent", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestEncodeJSONMatchesEncoder pins the pooled encoder to the bytes of a
// fresh json.Encoder: every document the API has ever served
// came from an Encoder with SetIndent("", "  "), and clients (and the
// cluster's byte-equality checks) compare against them. The cases cover
// a traced, metrics-enabled D-ORAM result, each envelope WriteJSON writes,
// and a string that needs HTML escaping.
func TestEncodeJSONMatchesEncoder(t *testing.T) {
	res, err := doram.Simulate(doram.Params{Scheme: doram.SchemeDORAM, Benchmark: "face", TraceLen: 600,
		Seed: 5, Trace: true, Metrics: true}.SimConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil || res.LatencyBreakdown == nil {
		t.Fatal("metrics and trace on, but the result lacks a dump or breakdown")
	}
	spec := specWithSeed(5).Canonical()
	status := JobStatus{ID: "j-00000001", State: StateDone, SpecHash: spec.Hash(), Spec: spec, CacheHit: true,
		History:   []Transition{{State: StateQueued, At: time.Unix(1, 5)}, {State: StateDone, At: time.Now()}},
		Placement: Placement{Node: "cache"}}
	cases := map[string]any{
		"result":     res,
		"job status": status,
		"submit response": SweepResponse{Jobs: []*JobStatus{&status, nil},
			Errors: []string{"", queueFullMsg + " (64 jobs)"}, Rejected: 1},
		"error":       apiError{Error: `simsvc: unknown job "<j>&"`},
		"health":      map[string]string{"status": "ok"},
		"html escape": "a<b>&c ",
	}
	for name, v := range cases {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			t.Fatalf("%s: encoder: %v", name, err)
		}
		got, err := encodeJSON(v)
		if err != nil {
			t.Fatalf("%s: encodeJSON: %v", name, err)
		}
		if !bytes.Equal(got, buf.Bytes()) {
			t.Errorf("%s: encodeJSON differs from json.Encoder:\n%s\nvs\n%s", name, got, buf.Bytes())
		}
	}
	if got, _ := encodeJSON("<>&"); string(got) != `"\u003c\u003e\u0026"`+"\n" {
		t.Errorf("encodeJSON(%q) = %q, want HTML-escaped with a trailing newline", "<>&", got)
	}
}

// TestResultJSONServesPublishedDocument: a result is encoded once, when
// it is published. ResultJSON on the finished job and on a later cache hit
// hands out that document without allocating, the hit serving the
// leader's very bytes, and GET …/result declares the document's length.
func TestResultJSONServesPublishedDocument(t *testing.T) {
	s := New(Config{Workers: 1, RunSim: func(ctx context.Context, cfg doram.SimConfig) (*doram.SimResult, error) {
		return breakdownResult(cfg), nil
	}})
	defer closeService(t, s)
	leader, err := s.Submit(specWithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, leader.ID(), StateDone)
	hit, err := s.Submit(specWithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if st := hit.Status(); st.State != StateDone || !st.CacheHit {
		t.Fatalf("resubmission: state %s cache_hit %v, want a done cache hit", st.State, st.CacheHit)
	}

	want, err := encodeJSON(breakdownResult(specWithSeed(4).SimConfig()))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := s.ResultJSON(leader.ID())
	if err != nil || !bytes.Equal(doc, want) {
		t.Fatalf("leader document %q (err %v), want %q", doc, err, want)
	}
	if got, err := s.ResultJSON(hit.ID()); err != nil || &got[0] != &doc[0] {
		t.Errorf("cache hit served a document of its own (err %v), want the leader's bytes", err)
	}
	for _, id := range []string{leader.ID(), hit.ID()} {
		if n := testing.AllocsPerRun(100, func() { s.ResultJSON(id) }); n != 0 {
			t.Errorf("ResultJSON(%s) made %.1f allocations, want 0", id, n)
		}
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+hit.ID()+"/result", nil))
	if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("GET result: %d %q, want 200 and the published document", rec.Code, rec.Body.Bytes())
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("GET result Content-Length %q, want %d", got, rec.Body.Len())
	}
}

// TestUnencodableResultFailsJob: a result that cannot be encoded could
// never be served, so its job fails at publish — with the encoder's error
// and nothing cached — rather than finishing done and answering 500 to
// every GET of its result.
func TestUnencodableResultFailsJob(t *testing.T) {
	runs := 0
	s := New(Config{Workers: 1, RunSim: func(context.Context, doram.SimConfig) (*doram.SimResult, error) {
		runs++
		return &doram.SimResult{AvgNSExecCycles: math.NaN()}, nil
	}})
	defer closeService(t, s)
	for i := 0; i < 2; i++ {
		job, err := s.Submit(specWithSeed(6))
		if err != nil {
			t.Fatal(err)
		}
		st := waitState(t, s, job.ID(), StateFailed)
		if !strings.Contains(st.Error, "encoding result") {
			t.Errorf("job failed with %q, want the encoding error", st.Error)
		}
		if _, err := s.ResultJSON(job.ID()); err == nil {
			t.Error("failed job served a result document")
		}
	}
	if runs != 2 {
		t.Errorf("%d runs for two submissions, want 2: an unencodable result must not be cached", runs)
	}
}
