package retry

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// scripted serves each request the next canned response for its path and
// counts the requests per path.
type scripted struct {
	mu    sync.Mutex
	steps map[string][]func(http.ResponseWriter)
	hits  map[string]int
}

func (s *scripted) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := r.Method + " " + r.URL.Path
	steps := s.steps[key]
	n := s.hits[key]
	s.hits[key]++
	if len(steps) == 0 {
		http.NotFound(w, r)
		return
	}
	steps[min(n, len(steps)-1)](w)
}

func reply(code int, body string, header ...string) func(http.ResponseWriter) {
	return func(w http.ResponseWriter) {
		for i := 0; i+1 < len(header); i += 2 {
			w.Header().Set(header[i], header[i+1])
		}
		w.WriteHeader(code)
		io.WriteString(w, body)
	}
}

func newScripted(t *testing.T, steps map[string][]func(http.ResponseWriter)) (*scripted, *Client, *[]string) {
	s := &scripted{steps: steps, hits: map[string]int{}}
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	var notes []string
	c := NewClient(srv.URL, nil, func() float64 { return 0 }, func(format string, args ...any) {
		notes = append(notes, fmt.Sprintf(format, args...))
	})
	return s, c, &notes
}

// TestClientRunThroughRetries runs one job through every retried status:
// a gateway error and a full queue on submit, then a poll that sees the
// state change before the result is fetched.
func TestClientRunThroughRetries(t *testing.T) {
	s, c, notes := newScripted(t, map[string][]func(http.ResponseWriter){
		"POST /v1/jobs": {
			reply(http.StatusBadGateway, "bad gateway"),
			reply(http.StatusTooManyRequests, `{"error":"simsvc: queue full (1 jobs)"}`, "Retry-After", "1"),
			reply(http.StatusAccepted, `{"id":"j-1","state":"queued"}`),
		},
		"GET /v1/jobs/j-1": {
			reply(http.StatusOK, `{"id":"j-1","state":"running"}`),
			reply(http.StatusOK, `{"id":"j-1","state":"done","history":[]}`),
		},
		"GET /v1/jobs/j-1/result": {reply(http.StatusOK, `{"NSFinish":[1]}`)},
	})
	data, err := c.Run([]byte(`{}`))
	if err != nil || string(data) != `{"NSFinish":[1]}` {
		t.Fatalf("Run = %q, %v", data, err)
	}
	if got := s.hits["POST /v1/jobs"]; got != 3 {
		t.Errorf("submit sent %d times, want 3 (gateway error, queue full, accepted)", got)
	}
	want := []string{
		"HTTP 502: bad gateway, retrying in 125ms", // 250ms at the low jitter bound
		"queue full, retrying in 750ms",            // Retry-After 1s at the low jitter bound
		"j-1 running",
		"j-1 done",
	}
	if strings.Join(*notes, "\n") != strings.Join(want, "\n") {
		t.Errorf("notices:\n%s\nwant:\n%s", strings.Join(*notes, "\n"), strings.Join(want, "\n"))
	}
}

// TestClientFinalStatuses: a rejected spec and a failed job end the call
// at once, with the server's message.
func TestClientFinalStatuses(t *testing.T) {
	s, c, _ := newScripted(t, map[string][]func(http.ResponseWriter){
		"POST /v1/jobs":    {reply(http.StatusBadRequest, `{"error":"doram: params: json: unknown field \"x\""}`)},
		"GET /v1/jobs/j-2": {reply(http.StatusOK, `{"id":"j-2","state":"failed","error":"boom"}`)},
	})
	if _, err := c.Run([]byte(`{"x":1}`)); err == nil || !strings.Contains(err.Error(), `unknown field "x" (HTTP 400)`) {
		t.Errorf("Run of an invalid spec: %v", err)
	}
	if got := s.hits["POST /v1/jobs"]; got != 1 {
		t.Errorf("invalid spec sent %d times, want once", got)
	}
	j, err := c.Wait("j-2")
	if err != nil || j.Err() == nil || !strings.Contains(j.Err().Error(), "ended failed: boom") {
		t.Errorf("Wait on a failed job = %+v, %v (Err %v)", j, err, j.Err())
	}
}

// TestClientSendLeaves429: Send hands a 429 back with its body, so a batch
// submit can read the jobs it accepted.
func TestClientSendLeaves429(t *testing.T) {
	s, c, _ := newScripted(t, map[string][]func(http.ResponseWriter){
		"POST /v1/sweeps": {reply(http.StatusTooManyRequests, `{"jobs":[null]}`, "Retry-After", "1")},
	})
	code, data, _, err := c.Send("POST", "/v1/sweeps", []byte(`{}`))
	if err != nil || code != http.StatusTooManyRequests || string(data) != `{"jobs":[null]}` {
		t.Errorf("Send = %d %q %v", code, data, err)
	}
	if got := s.hits["POST /v1/sweeps"]; got != 1 {
		t.Errorf("Send posted %d times, want once", got)
	}
}
