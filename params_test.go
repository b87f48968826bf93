package doram

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"doram/internal/bob"
	"doram/internal/core"
	"doram/internal/mc"
	"doram/internal/oram/backend"
	"doram/internal/oram/layout"
)

// TestParamsHashInvariance: the cache key must not care how the client
// spelled the spec — field order and spelled-out defaults are cosmetic.
func TestParamsHashInvariance(t *testing.T) {
	terse := `{"scheme":"d-oram","benchmark":"face","k":1,"c":4}`
	// Same spec: fields reordered, defaults written out explicitly.
	verbose := `{
		"c": 4,
		"seed": 1,
		"benchmark": "face",
		"trace_len": 20000,
		"num_ns": 7,
		"k": 1,
		"has_sapp": true,
		"pace": 50,
		"coop_threshold": 0.5,
		"scheme": "d-oram"
	}`
	a, err := ParamsFromJSON([]byte(terse))
	if err != nil {
		t.Fatalf("terse spec: %v", err)
	}
	b, err := ParamsFromJSON([]byte(verbose))
	if err != nil {
		t.Fatalf("verbose spec: %v", err)
	}
	if a.Hash() != b.Hash() {
		t.Errorf("hash not invariant under reordering/default-filling:\n  %s\n  %s", a.Hash(), b.Hash())
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("canonical forms differ:\n  %+v\n  %+v", a, b)
	}

	// Implied flags canonicalize too: metrics_epoch_cycles implies metrics,
	// and trace_sample 1 means the same as unset.
	c1, err := ParamsFromJSON([]byte(`{"scheme":"path-oram","benchmark":"libq","metrics_epoch_cycles":4096,"trace":true,"trace_sample":1}`))
	if err != nil {
		t.Fatalf("implied spec: %v", err)
	}
	c2, err := ParamsFromJSON([]byte(`{"scheme":"path-oram","benchmark":"libq","metrics":true,"trace":true}`))
	if err != nil {
		t.Fatalf("explicit spec: %v", err)
	}
	if c1.Hash() != c2.Hash() {
		t.Errorf("implied observability flags changed the hash")
	}

	// Backend names: spelling out the defaults must not change the hash —
	// pre-existing cache keys stay valid — while non-default names must.
	d1, err := ParamsFromJSON([]byte(`{"scheme":"d-oram","benchmark":"face"}`))
	if err != nil {
		t.Fatalf("bare spec: %v", err)
	}
	d2, err := ParamsFromJSON([]byte(`{"scheme":"d-oram","benchmark":"face","eviction":"level-by-level"}`))
	if err != nil {
		t.Fatalf("default-backend spec: %v", err)
	}
	if d1.Hash() != d2.Hash() {
		t.Errorf("explicit default backend names changed the hash")
	}
	// Spelling out the default run bound must not change the hash either.
	d4, err := ParamsFromJSON([]byte(`{"scheme":"d-oram","benchmark":"face","max_cycles":2000000000}`))
	if err != nil {
		t.Fatalf("spelled-out max_cycles spec: %v", err)
	}
	if d1.Hash() != d4.Hash() {
		t.Errorf("spelled-out default max_cycles changed the hash")
	}
	// Nor must the layout and link ablations' paper values, which the
	// simulator fills for omitted knobs.
	for _, knob := range []string{`"subtree_levels":7`, `"link_latency_ns":15`} {
		d, err := ParamsFromJSON([]byte(`{"scheme":"d-oram","benchmark":"face",` + knob + `}`))
		if err != nil {
			t.Fatalf("spelled-out %s spec: %v", knob, err)
		}
		if d1.Hash() != d.Hash() {
			t.Errorf("spelled-out default %s changed the hash", knob)
		}
	}
	d3, err := ParamsFromJSON([]byte(`{"scheme":"d-oram","benchmark":"face","eviction":"deterministic-two-path"}`))
	if err != nil {
		t.Fatalf("two-path spec: %v", err)
	}
	if d3.Hash() == d1.Hash() {
		t.Errorf("non-default eviction strategy did not change the hash")
	}
	if _, err := ParamsFromJSON([]byte(`{"scheme":"d-oram","benchmark":"face","eviction":"bogus"}`)); err == nil {
		t.Errorf("unknown eviction name admitted")
	}
}

// TestParamsHashSensitivity: every knob that changes the simulation must
// change the hash.
func TestParamsHashSensitivity(t *testing.T) {
	base := Params{Scheme: SchemeDORAM, Benchmark: "face"}
	seen := map[string]string{base.Hash(): "base"}
	for name, p := range map[string]Params{
		"k":       {Scheme: SchemeDORAM, Benchmark: "face", SplitK: 1},
		"c":       {Scheme: SchemeDORAM, Benchmark: "face", C: intp(4)},
		"bench":   {Scheme: SchemeDORAM, Benchmark: "libq"},
		"seed":    {Scheme: SchemeDORAM, Benchmark: "face", Seed: 2},
		"trace":   {Scheme: SchemeDORAM, Benchmark: "face", TraceLen: 4000},
		"num_ns":  {Scheme: SchemeDORAM, Benchmark: "face", NumNS: intp(3)},
		"pace":    {Scheme: SchemeDORAM, Benchmark: "face", Pace: 100},
		"ddr4":    {Scheme: SchemeDORAM, Benchmark: "face", DDR4: true},
		"metrics": {Scheme: SchemeDORAM, Benchmark: "face", Metrics: true},
	} {
		h := p.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("spec variant %q collides with %q", name, prev)
		}
		seen[h] = name
	}
}

func intp(v int) *int { return &v }

func boolp(v bool) *bool { return &v }

// TestParamsFromSimConfigHashPinned pins ParamsFromSimConfig's hashes —
// the cache keys doramctl, doramload and the coordinator compute — for the
// four default co-runs and every TestParamsHashSensitivity variant, so a
// change to the lifting cannot silently invalidate persisted caches.
func TestParamsFromSimConfigHashPinned(t *testing.T) {
	pinned := map[string]string{
		"non-secure":    "9893913c16a6352298d05a850b80369a49ff3865c1c338cdae2b3399237ecc85",
		"path-oram":     "810551575da4af43725bae712d86c0fa3049a22850422aeb1390d1ed75674354",
		"secure-memory": "e886b5873658bc249d5efc9b382bae409a1a09c011bef24e5caff12c5df080a0",
		"d-oram":        "943ccfefdee927ee428d2aee34babdfa3d29fa1fc92347cbce8f1ff61f67b60c",
	}
	for _, s := range []Scheme{SchemeNonSecure, SchemePathORAM, SchemeSecureMemory, SchemeDORAM} {
		p, err := ParamsFromSimConfig(DefaultSimConfig(s, "face"))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if got := p.Hash(); got != pinned[string(s)] {
			t.Errorf("%s: hash %s, pinned %s", s, got, pinned[string(s)])
		}
	}
	noFF := DefaultSimConfig(SchemeDORAM, "face")
	noFF.NoFastForward = true
	if p, err := ParamsFromSimConfig(noFF); err != nil || p.Hash() != pinned["d-oram"] {
		t.Errorf("NoFastForward lifted to a different spec (%v): %+v", err, p)
	}

	for name, c := range map[string]struct {
		p    Params
		hash string
	}{
		"base":    {Params{Scheme: SchemeDORAM, Benchmark: "face"}, "943ccfefdee927ee428d2aee34babdfa3d29fa1fc92347cbce8f1ff61f67b60c"},
		"k":       {Params{Scheme: SchemeDORAM, Benchmark: "face", SplitK: 1}, "a44240a4ddbc92815abba3c7e00630a291317f7b3d4b7c08682bcbfee1c167dd"},
		"c":       {Params{Scheme: SchemeDORAM, Benchmark: "face", C: intp(4)}, "7e0b8ffa229bdceb99e2c5a997446aece7c4156bf9f113aad77c03e549dc6e76"},
		"bench":   {Params{Scheme: SchemeDORAM, Benchmark: "libq"}, "8c0f6d43cd793da4ef5cead593359ebb9c886f9fc752735a4f2d5f546d4cb966"},
		"seed":    {Params{Scheme: SchemeDORAM, Benchmark: "face", Seed: 2}, "d7ef910ee9b8eda2eab228434b044012adaaf8077070210bf67a918399d0bfdd"},
		"trace":   {Params{Scheme: SchemeDORAM, Benchmark: "face", TraceLen: 4000}, "25dbe88ca6396aa6698cbab70c2a5cbd6b89afcafb1d2bf87f2d69e0aa4d0eed"},
		"num_ns":  {Params{Scheme: SchemeDORAM, Benchmark: "face", NumNS: intp(3)}, "bc3272230ec7ff41109e8c9746e5f42cb1a243743f3dc2751ba48b3e7fd60d2b"},
		"pace":    {Params{Scheme: SchemeDORAM, Benchmark: "face", Pace: 100}, "bc80ff5279f11dbc019162942dde7f4a72ff3f6a51cfdff921317c2bd22b448f"},
		"ddr4":    {Params{Scheme: SchemeDORAM, Benchmark: "face", DDR4: true}, "89885bd8a7af370fab258660f25c13f79bfa92d9626d8864151066b0093741d1"},
		"metrics": {Params{Scheme: SchemeDORAM, Benchmark: "face", Metrics: true}, "a5d6584d15dfb6f1552b773d39dadb4b895b178a0e0c0268055c99ad3077a7e0"},
	} {
		p, err := ParamsFromSimConfig(c.p.SimConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := p.Hash(); got != c.hash {
			t.Errorf("%s: hash %s, pinned %s", name, got, c.hash)
		}
	}
}

// sweepConfigs returns every config the experiment sweeps build under o,
// captured by an executor that records each one and fails it, so nothing
// is simulated. Sweeps that run in stages stop after their first.
func sweepConfigs(t *testing.T, o ExperimentOptions) []core.Config {
	t.Helper()
	io, err := o.internal()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var cfgs []core.Config
	errRecorded := errors.New("recorded")
	io.Exec = func(cfg core.Config) (*core.Results, error) {
		mu.Lock()
		defer mu.Unlock()
		cfgs = append(cfgs, cfg)
		return nil, errRecorded
	}
	for _, id := range Experiments() {
		if id == "table1" || id == "oram-compare" { // no simulation sweep
			continue
		}
		if _, err := runExperimentTable(id, io); !errors.Is(err, errRecorded) {
			t.Fatalf("%s: got %v, want the recording executor's error", id, err)
		}
	}
	return cfgs
}

// TestParamsFromCoreSweepConfigs: every config shape the sweeps build —
// solo, 3-channel co-run, D-ORAM with split and sharers, baseline,
// metrics, DDR4, phase overlap, eviction strategies — lifts to a spec that
// validates and lowers back to the identical simulation, so remote sweeps
// run exactly what a local sweep would. Only the scheduler ablation's
// MCPolicy is inexpressible, and it must say so.
func TestParamsFromCoreSweepConfigs(t *testing.T) {
	base := ExperimentOptions{TraceLen: 1200, Seed: 42, Benchmarks: []string{"face"}}
	withMetrics := base
	withMetrics.MetricsDir = t.TempDir()
	cfgs := append(sweepConfigs(t, base), sweepConfigs(t, withMetrics)...)

	inexpressible := 0
	for i, cfg := range cfgs {
		p, ok := paramsFromCore(cfg)
		if !ok {
			if cfg.MCPolicy == 0 {
				t.Errorf("config %d (%s): not expressible: %+v", i, cfg.Scheme, cfg)
			}
			inexpressible++
			continue
		}
		if err := p.Validate(); err != nil {
			t.Errorf("config %d (%s): lifted spec invalid: %v", i, cfg.Scheme, err)
			continue
		}
		back, err := p.SimConfig().coreConfig()
		if err != nil {
			t.Fatalf("config %d: lowering: %v", i, err)
		}
		// Spelled-out defaults fold to omitted, which lowers to the same
		// simulation: the default backend name to "", the layout and link
		// ablations' paper rows to 0.
		want := cfg
		if want.Eviction == backend.DefaultEviction {
			want.Eviction = ""
		}
		if want.SubtreeLevels == layout.DefaultSubtreeLevels {
			want.SubtreeLevels = 0
		}
		if want.LinkLatencyNs == bob.DefaultLinkLatencyNs {
			want.LinkLatencyNs = 0
		}
		if !reflect.DeepEqual(back, want) {
			t.Errorf("config %d (%s): spec lowers to a different simulation:\n  cfg:  %+v\n  back: %+v", i, cfg.Scheme, cfg, back)
		}
	}
	if inexpressible == 0 || inexpressible == len(cfgs) {
		t.Errorf("%d of %d sweep configs inexpressible; want only the scheduler ablation's", inexpressible, len(cfgs))
	}

	for name, cfg := range map[string]core.Config{
		"trace replay":   {TraceDir: "traces"},
		"mc policy":      {MCPolicy: mc.FCFS},
		"event ring cap": {TraceEvents: true, TraceLimit: 1000},
	} {
		if _, ok := paramsFromCore(cfg); ok {
			t.Errorf("%s: lifted to a spec that cannot express it", name)
		}
	}
}

// TestParamsFromCoreMatchesHandWrittenSpec: a sweep's Path ORAM baseline
// run must hash like the same spec written by hand (as doramctl users do),
// so remote sweeps share cache entries with every other client.
func TestParamsFromCoreMatchesHandWrittenSpec(t *testing.T) {
	var baseline *core.Config
	for _, cfg := range sweepConfigs(t, ExperimentOptions{TraceLen: 1200, Seed: 42, Benchmarks: []string{"face"}}) {
		if cfg.Scheme == core.PathORAMBaseline {
			baseline = &cfg
			break
		}
	}
	if baseline == nil {
		t.Fatal("no sweep builds a Path ORAM baseline config")
	}
	p, ok := paramsFromCore(*baseline)
	if !ok {
		t.Fatal("baseline config not expressible")
	}
	want, err := ParamsFromJSON([]byte(`{"scheme":"path-oram","benchmark":"face","trace_len":1200,"seed":42,"latency_warmup":60}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Hash() != want.Hash() {
		t.Errorf("lifted baseline hashes %s, hand-written spec %s", p.Hash(), want.Hash())
	}
}

// TestParamsJSONRoundTrip: MarshalJSON emits the canonical form and
// ParamsFromJSON reads it back to an identical spec.
func TestParamsJSONRoundTrip(t *testing.T) {
	p := Params{Scheme: SchemeDORAM, Benchmark: "mummer", SplitK: 2, C: intp(4),
		Seed: 9, Metrics: true, TraceTopN: 8, LinkCorruptProb: 0.01}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	back, err := ParamsFromJSON(data)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(back, p.Canonical()) {
		t.Errorf("round trip drifted:\n  in:  %+v\n  out: %+v", p.Canonical(), back)
	}
	if back.Hash() != p.Hash() {
		t.Errorf("round trip changed the hash")
	}
}

// TestParamsFromJSONRejects: unknown fields and invalid specs must not be
// admitted (a typo silently defaulting would poison cache keys).
func TestParamsFromJSONRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":  `{"scheme":"d-oram","benchmark":"face","splitk":1}`,
		"trailing data":  `{"scheme":"d-oram","benchmark":"face"} {}`,
		"bad scheme":     `{"scheme":"quantum","benchmark":"face"}`,
		"bad benchmark":  `{"scheme":"d-oram","benchmark":"nope"}`,
		"k out of range": `{"scheme":"d-oram","benchmark":"face","k":7}`,
		"k off-scheme":   `{"scheme":"path-oram","benchmark":"face","k":1}`,
		"bad link prob":  `{"scheme":"d-oram","benchmark":"face","link_corrupt_prob":1.5}`,
		// Both once admitted: the first panicked in the layout builder, the
		// second ran like the 15 ns default under a different hash.
		"negative subtree levels": `{"scheme":"d-oram","benchmark":"face","subtree_levels":-3}`,
		"negative link latency":   `{"scheme":"d-oram","benchmark":"face","link_latency_ns":-1}`,
	}
	for name, in := range cases {
		if _, err := ParamsFromJSON([]byte(in)); err == nil {
			t.Errorf("%s: accepted %s", name, in)
		}
	}
	// The run loop is an execution strategy, not a simulation knob (the
	// differential suite proves both loops bit-identical), so a spec
	// cannot name it and split the cache.
	in := `{"scheme":"d-oram","benchmark":"face","no_fast_forward":true}`
	if _, err := ParamsFromJSON([]byte(in)); err == nil || !strings.Contains(err.Error(), `unknown field "no_fast_forward"`) {
		t.Errorf("no_fast_forward: got %v, want an unknown-field rejection", err)
	}
}

// TestParamsSimConfigRoundTrip: lowering to SimConfig and lifting back is
// the identity on canonical specs.
func TestParamsSimConfigRoundTrip(t *testing.T) {
	p := Params{Scheme: SchemeDORAM, Benchmark: "face", SplitK: 1, C: intp(4),
		TraceLen: 5000, Seed: 3, Trace: true, TraceOramOnly: true}.Canonical()
	back, err := ParamsFromSimConfig(p.SimConfig())
	if err != nil {
		t.Fatalf("lift: %v", err)
	}
	if !reflect.DeepEqual(back, p) {
		t.Errorf("SimConfig round trip drifted:\n  in:  %+v\n  out: %+v", p, back)
	}

	if _, err := ParamsFromSimConfig(SimConfig{Params: Params{Scheme: SchemeDORAM, Benchmark: "face"}, TraceDir: "traces"}); err == nil {
		t.Errorf("TraceDir spec lifted without error")
	}
}

// TestSimConfigFieldCoverage: SimConfig.coreConfig is the one copy of the
// spec into core.Config and paramsFromCore the one copy back, so a spec
// field either copy misses would split a spec's hash from the run it
// names. Each field, set to a non-default value, must change the hash,
// lower to a simulation other than the base spec's, and lift back to its
// own hash. Each local knob must reach core.Config and stay out of the
// spec.
func TestSimConfigFieldCoverage(t *testing.T) {
	base := DefaultSimConfig(SchemeDORAM, "face")
	baseCore, err := base.coreConfig()
	if err != nil {
		t.Fatal(err)
	}
	special := map[string]any{ // fields whose kind gives no non-default value
		"Scheme":    SchemePathORAM,
		"Benchmark": "libq",
		"Eviction":  "deterministic-two-path",
		"HasSApp":   boolp(false),
	}
	set := func(f reflect.StructField, v reflect.Value) {
		if s, ok := special[f.Name]; ok {
			v.Set(reflect.ValueOf(s))
			return
		}
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int:
			v.SetInt(2)
		case reflect.Uint64:
			v.SetUint(2)
		case reflect.Float64:
			v.SetFloat(0.25)
		case reflect.String:
			v.SetString("traces")
		case reflect.Pointer:
			v.Set(reflect.ValueOf(intp(2)))
		case reflect.Slice:
			v.Set(reflect.ValueOf([]int{1, 2}))
		default:
			t.Fatalf("%s: no non-default value for kind %s", f.Name, v.Kind())
		}
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Anonymous {
			continue
		}
		cfg := base
		set(f, reflect.ValueOf(&cfg).Elem().Field(i))
		ic, err := cfg.coreConfig()
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if reflect.DeepEqual(ic, baseCore) {
			t.Errorf("local knob %s does not reach core.Config", f.Name)
		}
		if p, err := ParamsFromSimConfig(cfg); err == nil && p.Hash() != base.Hash() {
			t.Errorf("local knob %s changed the spec", f.Name)
		}
	}
	ptyp := reflect.TypeOf(base.Params)
	for i := 0; i < ptyp.NumField(); i++ {
		f := ptyp.Field(i)
		p := base.Params
		set(f, reflect.ValueOf(&p).Elem().Field(i))
		if p.Hash() == base.Hash() {
			t.Errorf("%s does not change the hash", f.Name)
		}
		ic, err := p.SimConfig().coreConfig()
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if reflect.DeepEqual(ic, baseCore) {
			t.Errorf("%s does not reach core.Config", f.Name)
		}
		if back, ok := paramsFromCore(ic); !ok || back.Hash() != p.Hash() {
			t.Errorf("%s does not survive the lift (ok=%v):\n  spec: %+v\n  back: %+v", f.Name, ok, p.Canonical(), back)
		}
	}
}

// TestSimConfigPromotedMethods pins how SimConfig treats the two Params
// methods that could carry the local knobs: both are left promoted, so
// MarshalJSON encodes the job spec alone and SimConfig() returns the
// spec's configuration with the local knobs cleared.
func TestSimConfigPromotedMethods(t *testing.T) {
	cfg := DefaultSimConfig(SchemeDORAM, "face")
	cfg.SplitK = 1
	cfg.TraceDir, cfg.TraceEventLimit, cfg.NoFastForward = "traces", 100, true
	got, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(cfg.Params)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("SimConfig JSON is not its spec's:\n  got:  %s\n  want: %s", got, want)
	}
	if s := cfg.SimConfig(); !reflect.DeepEqual(s, SimConfig{Params: cfg.Params.Canonical()}) {
		t.Errorf("SimConfig() kept the local knobs: %+v", s)
	}
}

// TestParamsHashIsHex sanity-checks the hash shape (64 hex chars).
func TestParamsHashIsHex(t *testing.T) {
	h := Params{Scheme: SchemePathORAM, Benchmark: "face"}.Hash()
	if len(h) != 64 || strings.Trim(h, "0123456789abcdef") != "" {
		t.Errorf("hash %q is not 64 lowercase hex chars", h)
	}
}

// FuzzParamsFromJSON: the job-spec decoder reads untrusted bytes from the
// doramd HTTP API. It must never panic; an accepted spec must keep its
// hash (the result-cache key) through a marshal/parse round trip; and
// ParamsFromSimConfig(p.SimConfig()) must keep it too. Seeds live in
// testdata/fuzz/FuzzParamsFromJSON.
func FuzzParamsFromJSON(f *testing.F) {
	f.Add([]byte(`{"scheme":"d-oram","benchmark":"face"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParamsFromJSON(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("marshal accepted spec: %v", err)
		}
		q, err := ParamsFromJSON(out)
		if err != nil {
			t.Fatalf("re-parse %s: %v", out, err)
		}
		if q.Hash() != p.Hash() {
			t.Errorf("hash changed across a round trip:\n  in:  %s\n  out: %s", data, out)
		}
		r, err := ParamsFromSimConfig(p.SimConfig())
		if err != nil {
			t.Fatalf("lift %s: %v", out, err)
		}
		if r.Hash() != p.Hash() {
			rout, _ := json.Marshal(r)
			t.Errorf("ParamsFromSimConfig(p.SimConfig()) changed the hash:\n  p:    %s\n  back: %s", out, rout)
		}
	})
}
