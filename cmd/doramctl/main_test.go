package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestSweepKeepsJobsAcceptedBefore429 drives sweep against a service whose
// queue fills part way through the batch: the 429 still carries the job
// it accepted. The sweep must keep that job, resubmit only the spec turned
// away for backpressure (not the invalid one), and never re-post the
// batch, which would orphan the accepted job.
func TestSweepKeepsJobsAcceptedBefore429(t *testing.T) {
	var mu sync.Mutex
	sweeps := 0
	var submitted []string
	waited := map[string]bool{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		switch {
		case r.Method == "POST" && r.URL.Path == "/v1/sweeps":
			sweeps++
			if sweeps > 1 { // a re-post: accept everything, under new ids
				w.WriteHeader(http.StatusAccepted)
				io.WriteString(w, `{"jobs":[{"id":"j-7","state":"queued"},{"id":"j-8","state":"queued"},{"id":"j-9","state":"queued"}],"rejected":0}`)
				return
			}
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, `{"jobs":[{"id":"j-1","state":"queued"},null,null],`+
				`"errors":["","simsvc: queue full (1 jobs)","doram: params: json: unknown field \"x\""],"rejected":2}`)
		case r.Method == "POST" && r.URL.Path == "/v1/jobs":
			body, _ := io.ReadAll(r.Body)
			submitted = append(submitted, string(body))
			w.WriteHeader(http.StatusAccepted)
			io.WriteString(w, `{"id":"j-2","state":"queued"}`)
		case r.Method == "GET" && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
			id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
			waited[id] = true
			json.NewEncoder(w).Encode(map[string]string{"id": id, "state": "done"})
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	dir := t.TempDir()
	specs := []string{
		`{"scheme":"d-oram","benchmark":"face"}`,
		`{"scheme":"path-oram","benchmark":"face"}`,
		`{"scheme":"d-oram","benchmark":"face","x":1}`,
	}
	var paths []string
	for i, spec := range specs {
		p := filepath.Join(dir, string(rune('a'+i))+".json")
		if err := os.WriteFile(p, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}

	err := newClient(srv.URL).sweep(append([]string{"-wait"}, paths...))
	if err == nil || !strings.Contains(err.Error(), "1 of 3") {
		t.Errorf("sweep error = %v, want the invalid spec reported as 1 of 3 unfinished", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if sweeps != 1 {
		t.Errorf("batch POSTed %d times, want once", sweeps)
	}
	if len(submitted) != 1 || submitted[0] != specs[1] {
		t.Errorf("resubmitted %q, want only the backpressured spec %q", submitted, specs[1])
	}
	for _, id := range []string{"j-1", "j-2"} {
		if !waited[id] {
			t.Errorf("job %s was never waited on (waited: %v)", id, waited)
		}
	}
}
