package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"doram/internal/core"
	"doram/internal/delegator"
	"doram/internal/metrics"
	"doram/internal/retry"
	"doram/internal/stats"
)

// Remote execution: when Options.Endpoint names a doramd service, sweep
// runs are submitted as job specs over its HTTP API instead of simulating
// in-process, and results are rebuilt from the service's exact integer
// aggregates (SimResult.Raw) — so a remote sweep produces bit-identical
// tables to a local one; remote_test.go enforces it.
//
// This package cannot import the root doram package (the root imports it),
// so the job-spec and result wire formats are mirrored here with the same
// JSON field names. The consistency tests live in an external test package
// (experiments_test), which may import both sides, and fail on drift.

// wireSpec mirrors doram.Params' JSON encoding, built from a core.Config.
type wireSpec struct {
	Scheme    string `json:"scheme"`
	Benchmark string `json:"benchmark"`

	NumNS      *int  `json:"num_ns,omitempty"`
	HasSApp    *bool `json:"has_sapp,omitempty"`
	NumS       int   `json:"num_s,omitempty"`
	SplitK     int   `json:"k,omitempty"`
	C          *int  `json:"c,omitempty"`
	NSChannels []int `json:"ns_channels,omitempty"`

	TraceLen      uint64 `json:"trace_len,omitempty"`
	Seed          uint64 `json:"seed,omitempty"`
	LatencyWarmup uint64 `json:"latency_warmup,omitempty"`

	Pace          uint64  `json:"pace,omitempty"`
	CoopThreshold float64 `json:"coop_threshold,omitempty"`
	SubtreeLevels int     `json:"subtree_levels,omitempty"`
	LinkLatencyNs float64 `json:"link_latency_ns,omitempty"`
	MaxCycles     uint64  `json:"max_cycles,omitempty"`

	ForkPath      bool `json:"fork_path,omitempty"`
	OverlapPhases bool `json:"overlap_phases,omitempty"`
	DDR4          bool `json:"ddr4,omitempty"`
	NoFastForward bool `json:"no_fast_forward,omitempty"`

	Eviction  string `json:"eviction,omitempty"`
	Encryptor string `json:"encryptor,omitempty"`

	LinkCorruptProb float64 `json:"link_corrupt_prob,omitempty"`
	LinkLossProb    float64 `json:"link_loss_prob,omitempty"`

	Metrics            bool   `json:"metrics,omitempty"`
	MetricsEpochCycles uint64 `json:"metrics_epoch_cycles,omitempty"`

	Trace         bool   `json:"trace,omitempty"`
	TraceSample   uint64 `json:"trace_sample,omitempty"`
	TraceOramOnly bool   `json:"trace_oram_only,omitempty"`
	TraceTopN     int    `json:"trace_top,omitempty"`
}

// specFromConfig lifts a core.Config into the wire spec. ok is false for
// configurations the spec cannot express — recorded-trace replay
// (TraceDir), a non-default memory-scheduler policy, an event-ring size
// override — which the remote runner then executes locally instead.
func specFromConfig(cfg core.Config) (wireSpec, bool) {
	if cfg.TraceDir != "" || cfg.MCPolicy != 0 || cfg.TraceLimit != 0 {
		return wireSpec{}, false
	}
	numNS, hasS, sharers := cfg.NumNS, cfg.HasSApp, cfg.SecureSharers
	return wireSpec{
		Scheme:             cfg.Scheme.String(),
		Benchmark:          cfg.Benchmark,
		NumNS:              &numNS,
		HasSApp:            &hasS,
		NumS:               cfg.NumS,
		SplitK:             cfg.SplitK,
		C:                  &sharers,
		NSChannels:         cfg.NSChannels,
		TraceLen:           cfg.TraceLen,
		Seed:               cfg.Seed,
		LatencyWarmup:      cfg.LatencyWarmup,
		Pace:               cfg.Pace,
		CoopThreshold:      cfg.CoopThreshold,
		SubtreeLevels:      cfg.SubtreeLevels,
		LinkLatencyNs:      cfg.LinkLatencyNs,
		MaxCycles:          cfg.MaxCycles,
		ForkPath:           cfg.ForkPath,
		OverlapPhases:      cfg.OverlapPhases,
		DDR4:               cfg.DDR4,
		NoFastForward:      cfg.NoFastForward,
		Eviction:           cfg.Eviction,
		Encryptor:          cfg.Encryptor,
		LinkCorruptProb:    cfg.LinkCorruptProb,
		LinkLossProb:       cfg.LinkLossProb,
		Metrics:            cfg.MetricsEpochCycles > 0,
		MetricsEpochCycles: cfg.MetricsEpochCycles,
		Trace:              cfg.TraceEvents,
		TraceSample:        cfg.TraceSample,
		TraceOramOnly:      cfg.TraceOramOnly,
		TraceTopN:          cfg.TraceTopK,
	}, true
}

// wireParts mirrors doram.LatencyParts.
type wireParts struct {
	Count, Sum, Min, Max uint64
}

func (p wireParts) latency() stats.Latency {
	return stats.LatencyFromParts(p.Count, p.Sum, p.Min, p.Max)
}

// wireORAM mirrors doram.ORAMRaw.
type wireORAM struct {
	Accesses     uint64
	Real         uint64
	Dummy        uint64
	RemoteBlocks uint64
	ReadPhase    wireParts
	WritePhase   wireParts
	SAppFinish   uint64
}

// wireRaw mirrors doram.SimRaw.
type wireRaw struct {
	Cycles            uint64
	NSInstrs          []uint64
	NSRead            wireParts
	NSWrite           wireParts
	ChannelRead       []wireParts
	ChannelWrite      []wireParts
	ChannelEnergyUJ   []float64
	ChannelRowHitRate []float64
	ORAM              *wireORAM
}

// wireResult mirrors the doram.SimResult fields the sweep consumes.
type wireResult struct {
	NSFinish           []uint64
	ChannelDataBusBusy []uint64
	Metrics            *metrics.Dump
	Raw                *wireRaw
}

// resultsFromWire rebuilds core.Results from the service's exact
// aggregates. Everything the figure pipelines consume is recovered
// losslessly; the latency histogram, span trace and per-channel link-fault
// counters stay server-side (sweeps neither trace remotely nor inject
// faults).
func resultsFromWire(cfg core.Config, wr *wireResult) (*core.Results, error) {
	raw := wr.Raw
	if raw == nil {
		return nil, fmt.Errorf("service result carries no raw aggregates (doramd too old?)")
	}
	res := &core.Results{
		Config:    cfg,
		Cycles:    raw.Cycles,
		NSFinish:  wr.NSFinish,
		NSInstrs:  raw.NSInstrs,
		NSReadLat: raw.NSRead.latency(),
	}
	res.NSWriteLat = raw.NSWrite.latency()
	if len(raw.ChannelRead) != core.NumChannels || len(raw.ChannelWrite) != core.NumChannels {
		return nil, fmt.Errorf("service result has %d/%d channel aggregates, want %d",
			len(raw.ChannelRead), len(raw.ChannelWrite), core.NumChannels)
	}
	for ch := 0; ch < core.NumChannels; ch++ {
		res.ReadLatPerChannel[ch] = raw.ChannelRead[ch].latency()
		res.WriteLatPerChannel[ch] = raw.ChannelWrite[ch].latency()
		if ch < len(wr.ChannelDataBusBusy) {
			res.ChannelDataBusBusy[ch] = wr.ChannelDataBusBusy[ch]
		}
		if ch < len(raw.ChannelEnergyUJ) {
			res.ChannelEnergyUJ[ch] = raw.ChannelEnergyUJ[ch]
		}
		if ch < len(raw.ChannelRowHitRate) {
			res.ChannelRowHitRate[ch] = raw.ChannelRowHitRate[ch]
		}
	}
	if o := raw.ORAM; o != nil {
		es := &delegator.ExecStats{
			ReadPhase:  o.ReadPhase.latency(),
			WritePhase: o.WritePhase.latency(),
		}
		es.Accesses.Add(o.Accesses)
		es.RealAccesses.Add(o.Real)
		es.DummyAccesses.Add(o.Dummy)
		es.RemoteBlocks.Add(o.RemoteBlocks)
		res.SApp = es
		res.SAppAll = []*delegator.ExecStats{es}
		res.SAppFinish = o.SAppFinish
	}
	if wr.Metrics != nil {
		res.Metrics = wr.Metrics
		res.Timeline = wr.Metrics.Timeline
	}
	return res, nil
}

// remoteClient drives one doramd endpoint for a sweep.
type remoteClient struct {
	base string
	hc   *http.Client
}

func newRemoteClient(endpoint string) *remoteClient {
	for len(endpoint) > 0 && endpoint[len(endpoint)-1] == '/' {
		endpoint = endpoint[:len(endpoint)-1]
	}
	return &remoteClient{base: endpoint, hc: &http.Client{Timeout: 30 * time.Second}}
}

// submitRetries bounds how often a queue-full rejection is retried before
// the run is reported failed.
const submitRetries = 20

// transientRetries bounds how often a connection error or gateway error
// (502/503/504) is retried inside do before the run is reported failed.
// Retries only affect wall-clock behaviour — results stay bit-identical,
// since re-submitting a spec is idempotent on the service side.
const transientRetries = 6

// transientBackoff spaces the transient retries inside do.
var transientBackoff = retry.Backoff{Base: 250 * time.Millisecond, Cap: 10 * time.Second, Lo: 0.5, Hi: 1.5}

type wireJob struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

// run executes one config remotely: submit (retrying 429 backpressure per
// the server's Retry-After), poll to completion, fetch and rebuild the
// result.
func (rc *remoteClient) run(spec wireSpec, cfg core.Config) (*core.Results, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var job wireJob
	for attempt := 0; ; attempt++ {
		code, data, hdr, err := rc.do("POST", "/v1/jobs", body)
		if err != nil {
			return nil, fmt.Errorf("submit: %w", err)
		}
		if code == http.StatusTooManyRequests {
			if attempt == submitRetries {
				return nil, fmt.Errorf("submit: queue still full after %d retries", submitRetries)
			}
			time.Sleep(min(retry.After(hdr, 2*time.Second), 30*time.Second))
			continue
		}
		if code >= 300 {
			return nil, fmt.Errorf("submit: %s", retry.ErrorMessage(code, data))
		}
		if err := json.Unmarshal(data, &job); err != nil {
			return nil, fmt.Errorf("submit: decoding response: %w", err)
		}
		break
	}

	for !terminalState(job.State) {
		time.Sleep(50 * time.Millisecond)
		code, data, _, err := rc.do("GET", "/v1/jobs/"+job.ID, nil)
		if err != nil {
			return nil, fmt.Errorf("poll %s: %w", job.ID, err)
		}
		if code >= 300 {
			return nil, fmt.Errorf("poll %s: %s", job.ID, retry.ErrorMessage(code, data))
		}
		if err := json.Unmarshal(data, &job); err != nil {
			return nil, fmt.Errorf("poll %s: decoding status: %w", job.ID, err)
		}
	}
	if job.State != "done" {
		return nil, fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
	}

	code, data, _, err := rc.do("GET", "/v1/jobs/"+job.ID+"/result", nil)
	if err != nil {
		return nil, fmt.Errorf("result %s: %w", job.ID, err)
	}
	if code >= 300 {
		return nil, fmt.Errorf("result %s: %s", job.ID, retry.ErrorMessage(code, data))
	}
	var wr wireResult
	if err := json.Unmarshal(data, &wr); err != nil {
		return nil, fmt.Errorf("result %s: decoding: %w", job.ID, err)
	}
	return resultsFromWire(cfg, &wr)
}

func terminalState(s string) bool {
	return s == "done" || s == "failed" || s == "cancelled"
}

// do performs one request, transparently retrying transient failures —
// connection errors (a worker restarting, a coordinator failing over) and
// gateway errors 502/503/504 — with jittered exponential backoff. Other
// statuses, including 429 backpressure (whose Retry-After policy belongs
// to the caller) and 500 (the job's own failure), are returned as-is.
func (rc *remoteClient) do(method, path string, body []byte) (int, []byte, http.Header, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		code, data, hdr, err := rc.doOnce(method, path, body)
		transient := err != nil ||
			code == http.StatusBadGateway || code == http.StatusServiceUnavailable ||
			code == http.StatusGatewayTimeout
		if !transient {
			return code, data, hdr, nil
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = errors.New(retry.ErrorMessage(code, data))
		}
		if attempt == transientRetries {
			return 0, nil, nil, fmt.Errorf("after %d attempts: %w", attempt+1, lastErr)
		}
		// 250ms·2^attempt capped at 10s, scaled by a random [0.5,1.5)
		// factor so a fleet of clients doesn't retry in lockstep.
		time.Sleep(transientBackoff.Delay(attempt, rand.Float64()))
	}
}

func (rc *remoteClient) doOnce(method, path string, body []byte) (int, []byte, http.Header, error) {
	req, err := http.NewRequest(method, rc.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rc.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, data, resp.Header, nil
}
