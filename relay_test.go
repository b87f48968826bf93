package doram

import (
	"bytes"
	"encoding/json"
	"testing"
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
			res, err := Simulate(p.Canonical().SimConfig())
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
