package doram

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"doram/internal/core"
	"doram/internal/delegator"
)

// encodeResult renders a result the way doramd's HTTP API serves it.
func encodeResult(t *testing.T, res *SimResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// TestResultJSONRelayIsExact pins the property the cluster coordinator's
// result relay rests on: a coordinator decodes each worker's result into a
// SimResult and serves its own encoding, so decoding and re-encoding must
// reproduce the worker's bytes exactly. Each figure configuration runs with
// metrics and tracing on, so the metric dump, its timeline and the latency
// attribution report all cross the round trip.
func TestResultJSONRelayIsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one simulation per figure configuration")
	}
	intp := func(v int) *int { return &v }
	boolp := func(v bool) *bool { return &v }
	specs := map[string]Params{
		"fig4-solo":          {Scheme: SchemeNonSecure, Benchmark: "face", NumNS: intp(1), HasSApp: boolp(false)},
		"fig9-path-oram":     {Scheme: SchemePathORAM, Benchmark: "face"},
		"fig9-secure-memory": {Scheme: SchemeSecureMemory, Benchmark: "libq"},
		"fig9-d-oram":        {Scheme: SchemeDORAM, Benchmark: "face"},
		"fig10-tree-split":   {Scheme: SchemeDORAM, Benchmark: "black", SplitK: 2},
		"fig11-sharers":      {Scheme: SchemeDORAM, Benchmark: "face", SplitK: 1, C: intp(4)},
		"fig12-ddr4":         {Scheme: SchemeDORAM, Benchmark: "libq", DDR4: true},
		"link-faults":        {Scheme: SchemeDORAM, Benchmark: "face", LinkCorruptProb: 0.02, LinkLossProb: 0.01},
	}
	for name, p := range specs {
		p := p
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p.TraceLen, p.Metrics, p.Trace = 1500, true, true
			res, err := Simulate(p.SimConfig())
			if err != nil {
				t.Fatalf("simulate: %v", err)
			}
			if res.Metrics == nil || res.LatencyBreakdown == nil {
				t.Fatalf("metrics and trace on, but the result lacks a dump or breakdown")
			}
			want := encodeResult(t, res)
			var back SimResult
			if err := json.Unmarshal(want, &back); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got := encodeResult(t, &back); !bytes.Equal(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				t.Errorf("re-encoded result differs from the original at byte %d of %d", i, len(want))
			}
		})
	}
}

// TestResultsFromRawRoundTrip: a run that crosses the wire as a SimResult
// rebuilds into the core.Results the run produced, in every field the
// figure pipelines read — what lets remote sweeps reproduce local figures
// bit for bit.
func TestResultsFromRawRoundTrip(t *testing.T) {
	for name, sc := range map[string]SimConfig{
		"solo": {Params: Params{Scheme: SchemeNonSecure, Benchmark: "face", NumNS: intp(1), HasSApp: boolp(false),
			TraceLen: 1500, Seed: 3}},
		"d-oram-split-metrics": {Params: Params{Scheme: SchemeDORAM, Benchmark: "libq",
			SplitK: 1, C: intp(4), TraceLen: 1500, Seed: 3, LatencyWarmup: 75, Metrics: true}},
	} {
		t.Run(name, func(t *testing.T) {
			ic, err := sc.coreConfig()
			if err != nil {
				t.Fatal(err)
			}
			sys, err := core.NewSystem(ic)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			var wire SimResult
			if err := json.Unmarshal(encodeResult(t, simResult(res)), &wire); err != nil {
				t.Fatalf("decode: %v", err)
			}
			back, err := resultsFromRaw(ic, &wire)
			if err != nil {
				t.Fatal(err)
			}

			// The metric dump crosses as JSON; compare it in that form.
			if (res.Metrics == nil) != (back.Metrics == nil) {
				t.Fatalf("metrics dump presence: local %v, rebuilt %v", res.Metrics != nil, back.Metrics != nil)
			}
			if res.Metrics != nil {
				if !bytes.Equal(mustJSON(t, back.Metrics), mustJSON(t, res.Metrics)) {
					t.Errorf("rebuilt metrics dump differs")
				}
				if back.Timeline != back.Metrics.Timeline {
					t.Errorf("rebuilt Timeline is not Metrics.Timeline")
				}
			}
			// Only the first S-App's stats cross the wire; the read-latency
			// histogram, engine stats, link-fault counters and span trace
			// stay server-side.
			want := *res
			want.NSReadHist, want.Engine, want.Trace = nil, nil, nil
			want.LinkFaults = [core.NumChannels]core.LinkFaultStats{}
			if res.SApp != nil {
				want.SAppAll = []*delegator.ExecStats{res.SApp}
			}
			want.Metrics, want.Timeline = nil, nil
			back.Metrics, back.Timeline = nil, nil
			if !reflect.DeepEqual(back, &want) {
				t.Errorf("rebuilt results differ:\n  local:   %+v\n  rebuilt: %+v", want, *back)
			}
		})
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
