package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
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

// TestEncodeJSONMatchesEncoder pins the one-pass encoder to the bytes of
// the json.Encoder it replaced: every document the API has ever served
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
