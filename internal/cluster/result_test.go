package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"doram"
	"doram/internal/simsvc"
)

// resultFraming is how a fake worker frames its result body on the wire.
type resultFraming int

const (
	// sized declares the body's length: the server does it for a short
	// body written in one piece.
	sized resultFraming = iota
	// chunked flushes the body in two pieces, so no length is declared.
	chunked
	// truncated declares more bytes than the first fetch sends, and
	// serves later fetches sized.
	truncated
)

// workerResults are result responses a worker may send, and what the
// coordinator must make of each. A body that fails to decode or to pass
// SimResult.Check must not leave the coordinator: a NaN (which no JSON
// encoder emits), a negative count or figure, exact aggregates for the
// wrong number of channels, and a per-channel list longer than the
// channel count. A good body is relayed however it is framed; one cut
// short of its declared length is a transport error, not a malformed
// result.
var workerResults = []struct {
	name, body string
	framing    resultFraming
	good       bool // the job completes with this result; otherwise it fails as malformed
}{
	{"nan", `{"AvgNSExecCycles":NaN}`, sized, false},
	{"negative count", `{"ORAMAccesses":-1}`, sized, false},
	{"negative figure", `{"NSReadLatencyNs":-0.5}`, sized, false},
	{"channel count", `{"Raw":{"ChannelRead":[{}],"ChannelWrite":[{}]}}`, sized, false},
	{"channel list", `{"ChannelDataBusBusy":[1,2,3,4,5]}`, sized, false},
	{"chunked", `{"AvgNSExecCycles":2.5,"ORAMAccesses":7}`, chunked, true},
	{"truncated", `{"AvgNSExecCycles":2.5,"ORAMAccesses":7}`, truncated, true},
}

// newResultWorker serves the job API with one job, j-1, whose result body
// is result, framed as framing says. The job is done at acceptance when
// doneAtAccept is set, and done on its first status poll otherwise.
func newResultWorker(t *testing.T, result string, framing resultFraming, doneAtAccept bool) *fakeWorker {
	t.Helper()
	status := func(state simsvc.State) []byte {
		b, _ := json.Marshal(simsvc.JobStatus{ID: "j-1", State: state})
		return b
	}
	accepted := simsvc.StateRunning
	if doneAtAccept {
		accepted = simsvc.StateDone
	}
	var fetches atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		w.Write(status(accepted))
	})
	mux.HandleFunc("GET /v1/jobs/j-1", func(w http.ResponseWriter, r *http.Request) {
		w.Write(status(simsvc.StateDone))
	})
	mux.HandleFunc("GET /v1/jobs/j-1/result", func(w http.ResponseWriter, r *http.Request) {
		switch {
		case framing == chunked:
			io.WriteString(w, result[:len(result)/2])
			w.(http.Flusher).Flush()
			io.WriteString(w, result[len(result)/2:])
		case framing == truncated && fetches.Add(1) == 1:
			// The server closes the connection after a short body.
			w.Header().Set("Content-Length", strconv.Itoa(len(result)+16))
			io.WriteString(w, result)
		default:
			io.WriteString(w, result)
		}
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
// not a re-fetch on every later poll. A good result is relayed whether
// or not the worker declares its length. A body that ends short of its
// declared length was not delivered: the failed fetch counts against the
// worker's breaker, and the next poll fetches it again.
func TestMalformedWorkerResultFailsJob(t *testing.T) {
	for _, tc := range workerResults {
		for _, doneAtAccept := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/done-at-accept=%v", tc.name, doneAtAccept), func(t *testing.T) {
				gate := newGateTransport()
				w := newResultWorker(t, tc.body, tc.framing, doneAtAccept)
				c := testCoordinator(t, nil, gate, CoordinatorConfig{}, w)
				id := submit(t, c, specJSON(1)).ID
				fetches := func() int { return gate.countRoute(http.MethodGet, w.url(), "/v1/jobs/j-1/result") }
				if !tc.good {
					st := waitState(t, c, id, simsvc.StateFailed)
					if !strings.Contains(st.Error, w.url()) || !strings.Contains(st.Error, "malformed result") {
						t.Errorf("job failed with %q, want a malformed-result error naming %s", st.Error, w.url())
					}
					if _, err := c.Result(st.ID); err == nil {
						t.Error("failed job handed out a result")
					}
					if n := fetches(); n != 1 {
						t.Errorf("the worker saw %d result fetches, want 1", n)
					}
					return
				}

				waitState(t, c, id, simsvc.StateDone)
				var res doram.SimResult
				if err := json.Unmarshal([]byte(tc.body), &res); err != nil {
					t.Fatal(err)
				}
				want, _ := json.MarshalIndent(&res, "", "  ")
				if got, err := c.Result(id); err != nil || !bytes.Equal(got, append(want, '\n')) {
					t.Errorf("relayed result %q (err %v), want the worker's result re-encoded", got, err)
				}
				wantFetches, wantErrors := 1, uint64(0)
				if tc.framing == truncated {
					wantFetches, wantErrors = 2, 1
				}
				if n := fetches(); n != wantFetches {
					t.Errorf("the worker saw %d result fetches, want %d", n, wantFetches)
				}
				if n := c.Registry().CounterValues()["cluster.proxy.errors"]; n != wantErrors {
					t.Errorf("%d transport errors counted against the worker, want %d", n, wantErrors)
				}
				if tc.framing == chunked {
					resp, err := http.Get(w.url() + "/v1/jobs/j-1/result")
					if err != nil {
						t.Fatal(err)
					}
					resp.Body.Close()
					if resp.ContentLength != -1 {
						t.Errorf("chunked worker declared Content-Length %d", resp.ContentLength)
					}
				}
			})
		}
	}
}

// FuzzDecodeResult feeds arbitrary worker result bytes to the
// coordinator's decoder. It must not panic, and a result it accepts must
// pass SimResult.Check and re-encode, since the coordinator caches and
// relays it. The seeds are a real d-oram result and the malformed bodies
// above.
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
	for _, tc := range workerResults {
		if !tc.good {
			f.Add([]byte(tc.body))
		}
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
