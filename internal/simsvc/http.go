package simsvc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"doram/internal/metrics"
	"doram/internal/retry"
)

// Handler returns the service's HTTP/JSON API:
//
//	POST /v1/jobs             submit one job spec        → JobStatus
//	POST /v1/sweeps           submit a batch of specs    → SweepResponse
//	GET  /v1/jobs/{id}        job status snapshot        → JobStatus
//	GET  /v1/jobs/{id}/result finished job's result      → doram.SimResult
//	GET  /v1/jobs/{id}/metrics finished job's metric dump → metrics.Dump
//	POST /v1/jobs/{id}/cancel request cancellation       → JobStatus
//	GET  /healthz             liveness (503 once draining)
//	GET  /varz                metric registry dump (JSON)
//	GET  /metrics             Prometheus text exposition of the same dump
//	GET  /events              live service-wide SSE event stream
//	GET  /v1/jobs/{id}/events SSE stream filtered to one job
//
// Service errors map onto status codes by kind: invalid specs → 400,
// unknown jobs → 404, queue-full → 429 with a Retry-After header,
// draining → 503, state conflicts → 409, failed jobs → 500.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweep)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /varz", s.handleVarz)
	mux.HandleFunc("GET /metrics", s.handlePrometheus)
	mux.HandleFunc("GET /events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	return mux
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

// docEncoder is one pooled document encoder: two json.Encoders over one
// buffer, one indenting two spaces for API documents and one compact for
// SSE data lines. An encoder keeps its indent scratch between documents,
// so a warm one encodes a typical document without growing either.
type docEncoder struct {
	buf     bytes.Buffer
	indent  *json.Encoder
	compact *json.Encoder
}

// maxPooledDoc caps the documents whose encoder goes back to the pool:
// results with metric timelines run to megabytes, and a pooled encoder
// would hold that much twice (buffer and indent scratch) for good.
const maxPooledDoc = 64 << 10

var docEncoders = sync.Pool{New: func() any {
	e := new(docEncoder)
	e.indent = json.NewEncoder(&e.buf)
	e.indent.SetIndent("", "  ")
	e.compact = json.NewEncoder(&e.buf)
	return e
}}

// getEncoder takes an encoder with an empty buffer from the pool.
func getEncoder() *docEncoder {
	e := docEncoders.Get().(*docEncoder)
	e.buf.Reset()
	return e
}

// release returns the encoder to the pool unless its last document was
// over the cap. Nothing may use its bytes afterwards.
func (e *docEncoder) release() {
	if e.buf.Cap() <= maxPooledDoc {
		docEncoders.Put(e)
	}
}

// withEncoded renders v the way every API response is written: indented
// two spaces, HTML-escaped, with a trailing newline (json.MarshalIndent
// plus "\n"). It hands the bytes to use, which must not keep them.
func withEncoded(v any, use func([]byte)) error {
	e := getEncoder()
	defer e.release()
	if err := e.indent.Encode(v); err != nil {
		return err
	}
	use(e.buf.Bytes())
	return nil
}

// encodeJSON returns v's API document in an exact copy of its own, for
// documents that outlive the request (job results, the result cache).
func encodeJSON(v any) ([]byte, error) {
	var doc []byte
	err := withEncoded(v, func(data []byte) { doc = bytes.Clone(data) })
	return doc, err
}

// WriteJSON writes v as an API response with the given status code. The
// cluster coordinator's own endpoints use it too, so the whole API speaks
// one encoding.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	_ = withEncoded(v, func(data []byte) { writeDoc(w, code, data) }) // API types always encode
}

// writeDoc writes an encoded JSON document under the given status code,
// with its length declared so a client can read it into an exact buffer.
func writeDoc(w http.ResponseWriter, code int, data []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(code)
	w.Write(data) // a write error means the client hung up; nothing to do
}

// ReadBody reads an HTTP body of at most limit bytes whose declared
// length (Content-Length; -1 when unknown) is length. A body that declares
// a length within the limit is read into a buffer of exactly that size,
// and one that ends short of it is an error. Any other body — chunked, of
// unknown length, or declared over the limit — is read as it comes, up to
// limit bytes.
func ReadBody(body io.Reader, length, limit int64) ([]byte, error) {
	if length <= 0 || length > limit {
		return io.ReadAll(io.LimitReader(body, limit))
	}
	buf := make([]byte, length)
	if _, err := io.ReadFull(body, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// WriteError maps a service error to its transport representation: the
// JSON error envelope under the status code of its kind, with a
// Retry-After header on backpressure. Errors of other types are 500s.
func WriteError(w http.ResponseWriter, err error) {
	var se *Error
	if !errors.As(err, &se) {
		WriteJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	code := http.StatusInternalServerError
	switch se.Kind {
	case ErrInvalid:
		code = http.StatusBadRequest
	case ErrNotFound:
		code = http.StatusNotFound
	case ErrQueueFull:
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", retry.Header(se.RetryAfter))
	case ErrDraining:
		code = http.StatusServiceUnavailable
	case ErrConflict:
		code = http.StatusConflict
	case ErrFailed:
		code = http.StatusInternalServerError
	}
	WriteJSON(w, code, apiError{Error: se.Msg})
}

// maxSpecBytes bounds request bodies; job specs are small JSON documents.
const maxSpecBytes = 1 << 20

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := ReadBody(r.Body, r.ContentLength, maxSpecBytes)
	if err != nil {
		WriteError(w, &Error{Kind: ErrInvalid, Msg: fmt.Sprintf("simsvc: reading spec: %v", err)})
		return
	}
	job, err := s.SubmitJSON(body)
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusAccepted, job.Status())
}

// SweepRequest is a batch submission: one spec per element.
type SweepRequest struct {
	Specs []json.RawMessage `json:"specs"`
}

// SweepResponse reports per-spec outcomes in request order. Jobs holds a
// status for every accepted spec; Errors holds a message for every
// rejected one (empty string for accepted slots), and Rejected counts
// them. A sweep with any backpressure rejection returns 429 — its
// accepted jobs stand, and IsQueueFull picks out the specs to resubmit;
// otherwise it returns 400 when every spec was rejected and 202 when any
// was accepted.
type SweepResponse struct {
	Jobs     []*JobStatus `json:"jobs"`
	Errors   []string     `json:"errors,omitempty"`
	Rejected int          `json:"rejected"`
}

func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request) {
	body, err := ReadBody(r.Body, r.ContentLength, maxSpecBytes)
	if err != nil {
		WriteError(w, &Error{Kind: ErrInvalid, Msg: fmt.Sprintf("simsvc: reading sweep: %v", err)})
		return
	}
	var req SweepRequest
	if err := json.Unmarshal(body, &req); err != nil {
		WriteError(w, &Error{Kind: ErrInvalid, Msg: fmt.Sprintf("simsvc: decoding sweep: %v", err)})
		return
	}
	if len(req.Specs) == 0 {
		WriteError(w, &Error{Kind: ErrInvalid, Msg: "simsvc: sweep has no specs"})
		return
	}
	resp := SweepResponse{
		Jobs:   make([]*JobStatus, len(req.Specs)),
		Errors: make([]string, len(req.Specs)),
	}
	backpressured := false
	var retryAfter string
	for i, raw := range req.Specs {
		job, err := s.SubmitJSON(raw)
		if err != nil {
			resp.Errors[i] = err.Error()
			resp.Rejected++
			var se *Error
			if errors.As(err, &se) && se.Kind == ErrQueueFull {
				backpressured = true
				retryAfter = retry.Header(se.RetryAfter)
			}
			continue
		}
		st := job.Status()
		resp.Jobs[i] = &st
	}
	code := http.StatusAccepted
	switch {
	case backpressured:
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", retryAfter)
	case resp.Rejected == len(req.Specs):
		code = http.StatusBadRequest
	case resp.Rejected > 0:
		code = http.StatusAccepted // partial success still accepted
	}
	if resp.Rejected == 0 {
		resp.Errors = nil
	}
	WriteJSON(w, code, resp)
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	data, err := s.ResultJSON(r.PathValue("id"))
	if err != nil {
		WriteError(w, err)
		return
	}
	writeDoc(w, http.StatusOK, data)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	dump, err := s.Metrics(r.PathValue("id"))
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, dump)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.Cancel(id); err != nil {
		WriteError(w, err)
		return
	}
	st, err := s.Status(id)
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Service) handleVarz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.dump().WriteJSON(w); err != nil {
		// Header already sent; nothing recoverable.
		return
	}
}

func (s *Service) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.PrometheusContentType)
	s.dump().WritePrometheus(w) // a write error means the scraper hung up
}

func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	ServeEventStream(w, r, s.bus, StreamOptions{
		Heartbeat: s.cfg.SSEHeartbeat,
		After:     s.cfg.After,
	})
}

func (s *Service) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.Status(id); err != nil {
		WriteError(w, err) // 404 before committing to a stream
		return
	}
	ServeEventStream(w, r, s.bus, StreamOptions{
		JobID:     id,
		Heartbeat: s.cfg.SSEHeartbeat,
		After:     s.cfg.After,
		Terminal:  s.terminalEvent,
	})
}

// terminalEvent synthesizes the closing stream event for a job that
// finished before the subscriber arrived (its real transition may have
// been evicted from the replay ring).
func (s *Service) terminalEvent(jobID string) (Event, bool) {
	st, err := s.Status(jobID)
	if err != nil || !st.State.Terminal() {
		return Event{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return Event{
		Time:       s.now(),
		Kind:       EventJob,
		JobID:      jobID,
		State:      st.State,
		Error:      st.Error,
		CacheHit:   st.CacheHit,
		Coalesced:  st.Coalesced,
		QueueDepth: len(s.queue),
		Running:    s.running,
		Completed:  s.completed.Value(),
	}, true
}
