package doram

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"doram/internal/bob"
	"doram/internal/core"
	"doram/internal/oram/backend"
	"doram/internal/oram/layout"
)

// Params is the canonical, JSON-serializable form of a simulation
// configuration — the job-spec payload of the doramd service and the wire
// contract of its HTTP API. SimConfig embeds it and adds the knobs no spec
// can carry (a server-side file path, an event ring, the run loop).
// Fields whose zero value is meaningful (NumNS, HasSApp, C) are pointers,
// so that "omitted" and "zero" stay distinguishable; every other zero
// field means the paper's default.
//
// Two Params describe the same simulation exactly when their Canonical
// forms are equal, and Hash is defined over that canonical form — so a
// spec's hash is invariant under JSON field reordering and under spelling
// out defaults the canonicalization would fill anyway. Equal hashes mean
// equal results: runs are deterministic in the spec and seed (the
// differential suite enforces bit-identical replay), which is what makes
// the doramd result cache sound.
type Params struct {
	Scheme    Scheme `json:"scheme"`
	Benchmark string `json:"benchmark"`

	// NumNS is the number of NS-App copies; omitted means the paper's 7.
	NumNS *int `json:"num_ns,omitempty"`
	// HasSApp runs an S-App under the scheme's protection; omitted means
	// true for every scheme except non-secure.
	HasSApp *bool `json:"has_sapp,omitempty"`
	// NumS runs multiple S-App copies (0 with HasSApp means 1) — the
	// §III-C capacity-pressure scenario.
	NumS int `json:"num_s,omitempty"`
	// SplitK is D-ORAM's tree-split depth k (0-3); the ORAM tree grows by
	// 2^k and the bottom k levels move to the normal channels.
	SplitK int `json:"k,omitempty"`
	// C is D-ORAM's secure-channel sharing limit c: how many NS-Apps may
	// use channel 0. Omitted (or num_ns and above) means AllNS (no limit).
	C *int `json:"c,omitempty"`
	// NSChannels restricts NS-Apps to a channel subset (e.g. [1,2,3] for
	// the 7NS-3ch partition); empty means all four channels.
	NSChannels []int `json:"ns_channels,omitempty"`

	// TraceLen is the memory accesses each core replays; omitted means
	// the default 20000.
	TraceLen uint64 `json:"trace_len,omitempty"`
	// Seed drives all randomness; omitted means 1.
	Seed uint64 `json:"seed,omitempty"`
	// LatencyWarmup discards each latency stream's first N observations
	// (cold-start queues and row buffers) from the reported statistics;
	// execution-time metrics are end-to-end and unaffected. The sweep
	// runner uses TraceLen/20.
	LatencyWarmup uint64 `json:"latency_warmup,omitempty"`

	// Pace is the timing-protection interval t (§III-B) in CPU cycles;
	// omitted means the paper's 50.
	Pace uint64 `json:"pace,omitempty"`
	// CoopThreshold is the bandwidth-preallocation share for ORAM traffic
	// on channels it shares with NS-Apps (§IV); omitted (or non-positive)
	// means the paper's 0.5.
	CoopThreshold float64 `json:"coop_threshold,omitempty"`
	// SubtreeLevels overrides the ORAM subtree layout depth; omitted
	// means the paper's 7. A value of 1 degenerates to the naive
	// level-order layout; at most 21, the uncached tree depth.
	SubtreeLevels int `json:"subtree_levels,omitempty"`
	// LinkLatencyNs overrides the BOB buffer-logic+link latency; omitted
	// means the paper's 15 ns.
	LinkLatencyNs float64 `json:"link_latency_ns,omitempty"`
	// MaxCycles bounds the run as a livelock safety net; omitted means
	// the 2-billion-cycle default.
	MaxCycles uint64 `json:"max_cycles,omitempty"`

	// ForkPath enables the redundant-path-access elimination of Zhang et
	// al. (MICRO 2015), an optional optimization outside the paper's
	// evaluated configurations.
	ForkPath bool `json:"fork_path,omitempty"`
	// OverlapPhases pipelines consecutive ORAM accesses in the SD ([39]'s
	// read/write phase acceleration; off reproduces the paper).
	OverlapPhases bool `json:"overlap_phases,omitempty"`
	// DDR4 swaps DDR3-1600 for DDR4-2400 devices (bank groups).
	DDR4 bool `json:"ddr4,omitempty"`

	// Eviction selects the ORAM write-back strategy by registry name
	// (EvictionStrategies). Strategies that schedule extra eviction paths
	// (deterministic-two-path) change the simulated address stream;
	// selection-only strategies matter to the functional plane. Omitted
	// or spelled-out default ("level-by-level") canonicalizes to the empty
	// string, so pre-existing spec hashes — and with them every
	// simsvc/cluster cache key — are unchanged by the knob's existence.
	Eviction string `json:"eviction,omitempty"`

	// LinkCorruptProb / LinkLossProb make every BOB serial link unreliable
	// (d-oram only): each transfer attempt is independently corrupted
	// (caught by the receiver's frame checksum) or lost (times out) with
	// these probabilities, and recovered by sequence-numbered
	// retransmission with exponential backoff. The recovery cost appears
	// in the result's LinkFaults.
	LinkCorruptProb float64 `json:"link_corrupt_prob,omitempty"`
	LinkLossProb    float64 `json:"link_loss_prob,omitempty"`

	// Metrics enables the observability subsystem: a metric registry over
	// every simulated component and a cycle-sampled timeline of bus
	// utilization, queue depths, stash occupancy and link fault counters,
	// returned in SimResult.Metrics / SimResult.Timeline. Disabled runs
	// pay at most a nil check per instrumentation point.
	Metrics bool `json:"metrics,omitempty"`
	// MetricsEpochCycles is the timeline sampling period in CPU cycles;
	// omitted means DefaultMetricsEpochCycles. Setting it implies Metrics.
	MetricsEpochCycles uint64 `json:"metrics_epoch_cycles,omitempty"`

	// Trace enables per-access event tracing: nested spans across the
	// engine, delegator, links, memory controllers and NS request paths,
	// returned in SimResult.Trace together with the per-stage latency
	// attribution (SimResult.LatencyBreakdown). Disabled runs pay at most
	// a nil check per instrumentation point. A spec's run keeps no span
	// events: only a local exporter asks for them
	// (SimConfig.TraceEventLimit), and result JSON never carries them.
	Trace bool `json:"trace,omitempty"`
	// TraceSample keeps every Nth ORAM access / NS request in the event
	// ring (0 or 1 = all); the attribution report always covers every
	// access. Values > 1 imply Trace.
	TraceSample uint64 `json:"trace_sample,omitempty"`
	// TraceOramOnly suppresses NS-request spans, keeping sweep traces
	// small; NS latency breakdowns are still recorded. Implies Trace.
	TraceOramOnly bool `json:"trace_oram_only,omitempty"`
	// TraceTopN sizes the slowest-ORAM-accesses report in the trace
	// (0 = 16). Values > 0 imply Trace.
	TraceTopN int `json:"trace_top,omitempty"`
}

// paperDefaults holds the paper's configuration (core.DefaultConfig), the
// one source of the defaults Params.Canonical fills.
var paperDefaults = core.DefaultConfig(core.DORAM, "")

// Canonical returns the spec with every omitted field replaced by its
// default and every implied flag made explicit, so that equivalent specs
// compare (and hash) equal. A sharing limit c of num_ns or more folds to
// AllNS, which it runs identically. MaxCycles, SubtreeLevels and
// LinkLatencyNs run the other way: a spelled-out default folds to omitted,
// which keeps the hashes of specs that never named them. It does not
// validate; see Validate.
func (p Params) Canonical() Params {
	c := p
	if c.NumNS == nil {
		n := paperDefaults.NumNS
		c.NumNS = &n
	}
	if c.HasSApp == nil {
		h := c.Scheme != SchemeNonSecure
		c.HasSApp = &h
	}
	if c.C == nil || *c.C >= *c.NumNS {
		all := AllNS
		c.C = &all
	}
	if len(c.NSChannels) == 0 {
		c.NSChannels = nil
	}
	if c.TraceLen == 0 {
		c.TraceLen = paperDefaults.TraceLen
	}
	if c.Seed == 0 {
		c.Seed = paperDefaults.Seed
	}
	if c.Pace == 0 {
		c.Pace = paperDefaults.Pace
	}
	if !(c.CoopThreshold > 0) { // NaN too
		c.CoopThreshold = paperDefaults.CoopThreshold
	}
	if c.MaxCycles == paperDefaults.MaxCycles {
		c.MaxCycles = 0
	}
	if c.SubtreeLevels == layout.DefaultSubtreeLevels {
		c.SubtreeLevels = 0
	}
	if c.LinkLatencyNs == bob.DefaultLinkLatencyNs {
		c.LinkLatencyNs = 0
	}
	if c.MetricsEpochCycles > 0 {
		c.Metrics = true
	}
	if c.Metrics && c.MetricsEpochCycles == 0 {
		c.MetricsEpochCycles = DefaultMetricsEpochCycles
	}
	if c.Eviction == backend.DefaultEviction {
		c.Eviction = ""
	}
	if c.TraceSample > 1 || c.TraceOramOnly || c.TraceTopN > 0 {
		c.Trace = true
	}
	if !c.Trace {
		c.TraceSample, c.TraceOramOnly, c.TraceTopN = 0, false, 0
	} else if c.TraceSample == 1 {
		c.TraceSample = 0 // 1 and 0 both mean "every access"
	}
	return c
}

// MarshalJSON emits the canonical form, so serializing a spec normalizes
// it: unmarshalling the output yields a spec with the same Hash.
func (p Params) MarshalJSON() ([]byte, error) {
	type bare Params // drop methods to avoid recursing into MarshalJSON
	return json.Marshal(bare(p.Canonical()))
}

// ParamsFromJSON decodes a job spec, rejecting unknown fields (a typoed
// knob silently defaulting would poison cache keys), and returns its
// canonical form. The spec is validated.
func ParamsFromJSON(data []byte) (Params, error) {
	type bare Params
	var b bare
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return Params{}, fmt.Errorf("doram: params: %w", err)
	}
	if err := ensureEOF(dec); err != nil {
		return Params{}, err
	}
	p := Params(b).Canonical()
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}

// ensureEOF rejects trailing data after the spec document.
func ensureEOF(dec *json.Decoder) error {
	if _, err := dec.Token(); err == nil {
		return fmt.Errorf("doram: params: trailing data after spec")
	}
	return nil
}

// Validate reports whether the spec describes a runnable simulation, by
// lowering it through the same path Simulate uses.
func (p Params) Validate() error {
	ic, err := p.SimConfig().coreConfig()
	if err != nil {
		return err
	}
	return ic.Validate()
}

// Hash returns the spec's stable content hash: the hex SHA-256 of the
// canonical JSON encoding. Specs that differ only in JSON field order or
// in spelled-out defaults hash identically; any knob that changes the
// simulation changes the hash. This is the doramd result-cache key.
func (p Params) Hash() string {
	data, err := json.Marshal(p) // canonical by MarshalJSON
	if err != nil {
		// Params has no unmarshalable field types; this is unreachable
		// short of memory corruption.
		panic(fmt.Sprintf("doram: params hash: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// SimConfig returns the spec's canonical form as a runnable simulation
// configuration, with no local knob set.
func (p Params) SimConfig() SimConfig { return SimConfig{Params: p.Canonical()} }

// ParamsFromSimConfig returns the canonical spec of a simulation
// configuration. It fails for a configuration with an event ring
// (TraceEventLimit keeps span events for export, which a result does not
// transport; a spec's traced run keeps attribution only), which no spec
// can express. NoFastForward is dropped: the run loop does not change the
// result.
func ParamsFromSimConfig(c SimConfig) (Params, error) {
	if c.TraceEventLimit != 0 {
		return Params{}, fmt.Errorf("doram: params: TraceEventLimit is not expressible in a job spec")
	}
	return c.Params.Canonical(), nil
}

// paramsFromCore lifts an internal configuration into the canonical spec —
// the inverse of SimConfig.coreConfig, which the remote sweep executor
// needs because sweeps build core.Configs. It fails for a configuration
// with an event ring (TraceLimit), which only a local exporter can read.
func paramsFromCore(c core.Config) (Params, error) {
	if c.TraceLimit != 0 {
		return Params{}, fmt.Errorf("doram: params: an event ring (TraceLimit) is not expressible in a job spec")
	}
	numNS, hasS, sharers := c.NumNS, c.HasSApp, c.SecureSharers
	p := Params{
		Scheme:             Scheme(c.Scheme.String()),
		Benchmark:          c.Benchmark,
		NumNS:              &numNS,
		HasSApp:            &hasS,
		NumS:               c.NumS,
		SplitK:             c.SplitK,
		C:                  &sharers,
		NSChannels:         c.NSChannels,
		TraceLen:           c.TraceLen,
		Seed:               c.Seed,
		LatencyWarmup:      c.LatencyWarmup,
		Pace:               c.Pace,
		CoopThreshold:      c.CoopThreshold,
		SubtreeLevels:      c.SubtreeLevels,
		LinkLatencyNs:      c.LinkLatencyNs,
		MaxCycles:          c.MaxCycles,
		ForkPath:           c.ForkPath,
		OverlapPhases:      c.OverlapPhases,
		DDR4:               c.DDR4,
		Eviction:           c.Eviction,
		LinkCorruptProb:    c.LinkCorruptProb,
		LinkLossProb:       c.LinkLossProb,
		MetricsEpochCycles: c.MetricsEpochCycles,
		Trace:              c.TraceEvents,
		TraceSample:        c.TraceSample,
		TraceOramOnly:      c.TraceOramOnly,
		TraceTopN:          c.TraceTopK,
	}
	return p.Canonical(), nil
}
