package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"doram"
	"doram/internal/simsvc"
)

// badResults are worker result bodies that must not leave the
// coordinator: a NaN (which no JSON encoder emits), a negative count or
// figure, exact aggregates for the wrong number of channels, and a
// per-channel list longer than the channel count.
var badResults = []struct{ name, body string }{
	{"nan", `{"AvgNSExecCycles":NaN}`},
	{"negative count", `{"ORAMAccesses":-1}`},
	{"negative figure", `{"NSReadLatencyNs":-0.5}`},
	{"channel count", `{"Raw":{"ChannelRead":[{}],"ChannelWrite":[{}]}}`},
	{"channel list", `{"ChannelDataBusBusy":[1,2,3,4,5]}`},
}

// newBadWorker serves the job API with one job, j-1, whose result body
// is result. The job is done at acceptance when doneAtAccept is set, and
// done on its first status poll otherwise.
func newBadWorker(t *testing.T, result string, doneAtAccept bool) *fakeWorker {
	t.Helper()
	status := func(state simsvc.State) []byte {
		b, _ := json.Marshal(simsvc.JobStatus{ID: "j-1", State: state})
		return b
	}
	accepted := simsvc.StateRunning
	if doneAtAccept {
		accepted = simsvc.StateDone
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		w.Write(status(accepted))
	})
	mux.HandleFunc("GET /v1/jobs/j-1", func(w http.ResponseWriter, r *http.Request) {
		w.Write(status(simsvc.StateDone))
	})
	mux.HandleFunc("GET /v1/jobs/j-1/result", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, result)
	})
	mux.HandleFunc("POST /v1/jobs/j-1/cancel", func(w http.ResponseWriter, r *http.Request) {
		w.Write(status(simsvc.StateCancelled))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return &fakeWorker{srv: srv}
}

// TestMalformedWorkerResultFailsJob: a result the worker delivers but
// that fails to decode or to pass SimResult.Check ends the job with an
// error naming the worker, after one fetch — not a relayed result, and
// not a re-fetch on every later poll.
func TestMalformedWorkerResultFailsJob(t *testing.T) {
	for _, bad := range badResults {
		for _, doneAtAccept := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/done-at-accept=%v", bad.name, doneAtAccept), func(t *testing.T) {
				gate := newGateTransport()
				w := newBadWorker(t, bad.body, doneAtAccept)
				c := testCoordinator(t, nil, gate, CoordinatorConfig{}, w)

				st := waitState(t, c, submit(t, c, specJSON(1)).ID, simsvc.StateFailed)
				if !strings.Contains(st.Error, w.url()) || !strings.Contains(st.Error, "malformed result") {
					t.Errorf("job failed with %q, want a malformed-result error naming %s", st.Error, w.url())
				}
				if _, err := c.Result(st.ID); err == nil {
					t.Error("failed job handed out a result")
				}
				if n := gate.countRoute(http.MethodGet, w.url(), "/v1/jobs/j-1/result"); n != 1 {
					t.Errorf("the worker saw %d result fetches, want 1", n)
				}
			})
		}
	}
}

// FuzzDecodeResult feeds arbitrary worker result bytes to the
// coordinator's decoder. It must not panic, and a result it accepts must
// pass SimResult.Check and re-encode, since the coordinator caches and
// relays it. The seeds are a real d-oram result and the bad bodies above.
func FuzzDecodeResult(f *testing.F) {
	res, err := doram.Simulate(doram.SimConfig{Params: doram.Params{
		Scheme: doram.SchemeDORAM, Benchmark: "face", TraceLen: 300, Seed: 1}})
	if err != nil {
		f.Fatal(err)
	}
	seed, err := json.Marshal(res)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	for _, bad := range badResults {
		f.Add([]byte(bad.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := decodeResult(data)
		if err != nil {
			return
		}
		if err := res.Check(); err != nil {
			t.Fatalf("accepted a result that fails its check: %v", err)
		}
		if _, err := json.Marshal(res); err != nil {
			t.Fatalf("accepted a result that does not re-encode: %v", err)
		}
	})
}
