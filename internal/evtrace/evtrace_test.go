package evtrace

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// emitters are the three recording entry points, each recording one
// interval of request id on track "a" (EmitUnkeyed drops the ID).
var emitters = []struct {
	name string
	emit func(tr *Tracer, id, start, end uint64)
}{
	{"Emit", func(tr *Tracer, id, start, end uint64) { tr.Emit("a", "oram", "x", id, start, end, 0) }},
	{"EmitOverlap", func(tr *Tracer, id, start, end uint64) { tr.EmitOverlap("a", "oram", "x", id, start, end, 0) }},
	{"EmitUnkeyed", func(tr *Tracer, _, start, end uint64) { tr.EmitUnkeyed("a", "dram", "x", start, end, 0) }},
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if id := tr.AccessID(); id != 0 {
		t.Fatalf("nil AccessID = %d", id)
	}
	if id := tr.RequestID(); id != 0 {
		t.Fatalf("nil RequestID = %d", id)
	}
	for _, e := range emitters {
		e.emit(tr, 1, 0, 5) // must not panic
	}
	tr.RecordStages(KindOram, 1, 0, 10, Stage{"s", 10})
	if tr.Finish() != nil {
		t.Fatal("nil Finish returned trace")
	}
}

func TestZeroIDEmitsNothing(t *testing.T) {
	for _, e := range emitters[:2] { // EmitUnkeyed takes no ID
		tr := New(Config{Limit: DefaultLimit})
		e.emit(tr, 0, 0, 5)
		if trace := tr.Finish(); len(trace.Events) != 0 {
			t.Errorf("%s: id 0 recorded %d events, want 0", e.name, len(trace.Events))
		}
	}
}

// TestContainmentViolationsCounted: a span ending before it starts is
// counted as a violation and clamped to zero length, whichever entry point
// recorded it.
func TestContainmentViolationsCounted(t *testing.T) {
	for _, e := range emitters {
		tr := New(Config{Limit: DefaultLimit})
		e.emit(tr, 1, 100, 50)
		trace := tr.Finish()
		if trace.Violations != 1 {
			t.Errorf("%s: violations = %d, want 1", e.name, trace.Violations)
		}
		if trace.Validate() == nil {
			t.Errorf("%s: Validate accepted violating trace", e.name)
		}
		if len(trace.Events) != 1 || trace.Events[0].Start != 100 || trace.Events[0].End != 100 {
			t.Errorf("%s: clamping failed: %+v", e.name, trace.Events)
		}
	}
}

// TestCrossingSameIDSpansRejected: two lifecycle spans of one request that
// cross on a track fail the export's nesting check, while the same pair
// recorded as occupancy intervals (EmitOverlap) passes it.
func TestCrossingSameIDSpansRejected(t *testing.T) {
	for i, want := range []bool{false, true} { // Emit, EmitOverlap
		e := emitters[i]
		tr := New(Config{Limit: DefaultLimit})
		e.emit(tr, 1, 0, 10)
		e.emit(tr, 1, 5, 15)
		var buf bytes.Buffer
		if err := tr.Finish().WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		if err := ValidateChromeJSON(buf.Bytes()); (err == nil) != want {
			t.Errorf("%s: ValidateChromeJSON = %v, want accepted=%v", e.name, err, want)
		}
	}
}

func TestRingBounds(t *testing.T) {
	tr := New(Config{Limit: 4})
	for i := uint64(1); i <= 10; i++ {
		tr.Emit("a", "oram", "x", i, i*10, i*10+5, 0)
	}
	trace := tr.Finish()
	if len(trace.Events) != 4 {
		t.Fatalf("events = %d, want 4", len(trace.Events))
	}
	if trace.Dropped != 6 {
		t.Fatalf("dropped = %d, want 6", trace.Dropped)
	}
	// Oldest-first ring order: the survivors are events 7..10.
	for i, ev := range trace.Events {
		if want := uint64(7 + i); ev.ID != want {
			t.Fatalf("event %d id = %d, want %d", i, ev.ID, want)
		}
	}
}

// TestRingExactWrapAndHandover covers the two Finish paths TestRingBounds
// does not: a ring that never wrapped transfers to the Trace without a
// copy, and one that wrapped back to head 0 needs no rotation.
func TestRingExactWrapAndHandover(t *testing.T) {
	tr := New(Config{Limit: 8})
	for i := uint64(1); i <= 3; i++ {
		tr.Emit("a", "oram", "x", i, i*10, i*10+5, 0)
	}
	ring := tr.events
	trace := tr.Finish()
	if len(trace.Events) != 3 || &trace.Events[0] != &ring[0] {
		t.Fatalf("unwrapped ring was copied or truncated: %d events", len(trace.Events))
	}

	tr = New(Config{Limit: 4})
	for i := uint64(1); i <= 8; i++ {
		tr.Emit("a", "oram", "x", i, i*10, i*10+5, 0)
	}
	trace = tr.Finish()
	if trace.Dropped != 4 || len(trace.Events) != 4 {
		t.Fatalf("dropped = %d, events = %d, want 4 and 4", trace.Dropped, len(trace.Events))
	}
	for i, ev := range trace.Events {
		if want := uint64(5 + i); ev.ID != want {
			t.Fatalf("event %d id = %d, want %d", i, ev.ID, want)
		}
	}
}

// TestNoRingKeepsAttribution: a tracer without a ring keeps no events and
// drops none, yet still counts violations, records the breakdown and ranks
// the slowest accesses exactly as a ringed tracer does.
func TestNoRingKeepsAttribution(t *testing.T) {
	drive := func(tr *Tracer) *Trace {
		for i := uint64(1); i <= 50; i++ {
			id := tr.AccessID()
			tr.Emit("sapp0", "oram", "access", id, i*100, i*100+60+i, 0)
			tr.Emit("sapp0", "oram", "read_phase", id, i*100, i*100+40+i, 0)
			tr.EmitOverlap("chan0.link.down", "link", "packet", id, i*100, i*100+18, 72)
			tr.RecordStages(KindOram, id, i*100, 60+i, Stage{"read_phase", 40 + i}, Stage{"respond", 20})
		}
		tr.Emit("sapp0", "oram", "access", 1000, 10, 5, 0) // ends before it starts
		tr.EmitUnkeyed("chan0.dram", "dram", "refresh", 30, 20, 0)
		return tr.Finish()
	}
	ringless := drive(New(Config{Sample: 4, TopK: 3}))
	ringed := drive(New(Config{Sample: 4, TopK: 3, Limit: 16}))
	if ringless.Events != nil || ringless.Dropped != 0 {
		t.Fatalf("ringless trace kept %d events, dropped %d", len(ringless.Events), ringless.Dropped)
	}
	if ringed.Dropped == 0 {
		t.Fatal("ringed tracer expected to wrap")
	}
	if ringless.Violations != 2 || ringless.Violations != ringed.Violations {
		t.Fatalf("violations: ringless %d, ringed %d, want 2", ringless.Violations, ringed.Violations)
	}
	if !reflect.DeepEqual(ringless.Report, ringed.Report) || !reflect.DeepEqual(ringless.Top, ringed.Top) ||
		!reflect.DeepEqual(ringless.StageHists, ringed.StageHists) {
		t.Fatal("attribution differs between ringless and ringed tracers")
	}
}

func TestSampling(t *testing.T) {
	tr := New(Config{Sample: 3})
	var nonzero int
	for i := 0; i < 9; i++ {
		if tr.AccessID() != 0 {
			nonzero++
		}
	}
	if nonzero != 3 {
		t.Fatalf("sampled %d of 9, want 3", nonzero)
	}
	// First access always samples, so single-access runs trace.
	tr2 := New(Config{Sample: 1000})
	if tr2.AccessID() == 0 {
		t.Fatal("first access sampled out")
	}
}

func TestOramOnlySuppressesRequestIDs(t *testing.T) {
	tr := New(Config{OramOnly: true})
	if id := tr.RequestID(); id != 0 {
		t.Fatalf("OramOnly RequestID = %d", id)
	}
	if id := tr.AccessID(); id == 0 {
		t.Fatal("OramOnly suppressed AccessID")
	}
}

func TestRecordStagesReport(t *testing.T) {
	tr := New(Config{})
	tr.RecordStages(KindOram, 1, 0, 100,
		Stage{"read_phase", 60}, Stage{"respond", 40})
	tr.RecordStages(KindOram, 2, 50, 200,
		Stage{"read_phase", 150}, Stage{"respond", 50})
	tr.RecordStages(KindNSRead, 0, 0, 30, Stage{"mc_queue", 10}, Stage{"dram", 20})
	trace := tr.Finish()
	if trace.Violations != 0 {
		t.Fatalf("violations = %d", trace.Violations)
	}
	if len(trace.Report.Kinds) != 2 {
		t.Fatalf("kinds = %d, want 2", len(trace.Report.Kinds))
	}
	oram := trace.Report.Kinds[0]
	if oram.Kind != KindOram || oram.Total.Count != 2 || oram.Total.Mean != 150 {
		t.Fatalf("oram total: %+v", oram.Total)
	}
	// Stage means sum to the end-to-end mean exactly (telescoping stages).
	var sum float64
	for _, st := range oram.Stages {
		sum += st.Mean
	}
	if sum != oram.Total.Mean {
		t.Fatalf("stage means sum %v != total mean %v", sum, oram.Total.Mean)
	}
	if oram.Stages[0].Stage != "read_phase" || oram.Stages[1].Stage != "respond" {
		t.Fatalf("stage order: %+v", oram.Stages)
	}
}

func TestRecordStagesSumMismatchIsViolation(t *testing.T) {
	tr := New(Config{})
	tr.RecordStages(KindOram, 1, 0, 100, Stage{"a", 60}) // 60 != 100
	trace := tr.Finish()
	if trace.Violations == 0 {
		t.Fatal("stage-sum mismatch not counted")
	}
}

func TestTopKSlowest(t *testing.T) {
	tr := New(Config{TopK: 3})
	totals := []uint64{50, 300, 10, 200, 400, 100}
	for i, tot := range totals {
		tr.RecordStages(KindOram, uint64(i+1), uint64(i), tot, Stage{"s", tot})
	}
	trace := tr.Finish()
	if len(trace.Top) != 3 {
		t.Fatalf("top = %d entries, want 3", len(trace.Top))
	}
	want := []uint64{400, 300, 200} // slowest first
	for i, w := range want {
		if trace.Top[i].Total != w {
			t.Fatalf("top[%d] = %d, want %d", i, trace.Top[i].Total, w)
		}
	}
}

// TestTopKMatchesReference: the top-K report equals that of a plain
// reference (evict the first of the cheapest, insert after every entry no
// slower), ties included, with stage lists copied rather than aliased.
func TestTopKMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	for _, k := range []int{1, 3, 16} {
		tr := New(Config{TopK: k})
		var ref []TopAccess
		for i := 0; i < 2000; i++ {
			total := uint64(rng.IntN(40)) // many equal totals
			stages := make([]Stage, 1+rng.IntN(3))
			rest := total
			for j := len(stages) - 1; j >= 0; j-- {
				stages[j] = Stage{Name: string(rune('a' + j)), Dur: rest / uint64(j+1)}
				rest -= stages[j].Dur
			}
			if len(ref) < k || total > ref[0].Total {
				if len(ref) == k {
					ref = ref[1:]
				}
				at := len(ref)
				for at > 0 && ref[at-1].Total > total {
					at--
				}
				ref = slices.Insert(ref, at, TopAccess{ID: uint64(i + 1), Start: uint64(i), Total: total,
					Stages: slices.Clone(stages)})
			}
			tr.RecordStages(KindOram, uint64(i+1), uint64(i), total, stages...)
			stages[0].Name = "clobbered" // the tracer must have copied
		}
		slices.Reverse(ref)
		if got := tr.Finish().Top; !reflect.DeepEqual(got, ref) {
			t.Errorf("TopK %d: report differs from the reference\ngot  %v\nwant %v", k, got, ref)
		}
	}
}

// TestTopKReplaceAllocs: a warm tracer that replaces a top-K entry
// allocates nothing; the newcomer reuses the evicted entry's stages.
func TestTopKReplaceAllocs(t *testing.T) {
	tr := New(Config{TopK: 4})
	total := uint64(100)
	record := func() {
		total++
		tr.RecordStages(KindOram, total, 0, total, Stage{"read_phase", total - 40}, Stage{"write_phase", 40})
	}
	for i := 0; i < 8; i++ {
		record()
	}
	if n := testing.AllocsPerRun(100, record); n != 0 {
		t.Errorf("RecordStages replacing a top-K entry allocates %.1f times, want 0", n)
	}
}

func TestChromeRoundTrip(t *testing.T) {
	tr := New(Config{Limit: DefaultLimit})
	tr.Emit("sapp0", "oram", "access", 1, 100, 200, 0)
	tr.Emit("sapp0", "oram", "read_phase", 1, 100, 180, 0)
	tr.EmitOverlap("chan0.link.down", "link", "packet", 1, 100, 118, 72)
	trace := tr.Finish()
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"traceEvents"`) {
		t.Fatal("missing traceEvents wrapper")
	}
	if !strings.Contains(out, `"thread_name"`) {
		t.Fatal("missing track metadata")
	}
	if err := ValidateChromeJSON(buf.Bytes()); err != nil {
		t.Fatalf("exported trace fails validator: %v", err)
	}
	// Deterministic output: a second export is byte-identical.
	var buf2 bytes.Buffer
	if err := trace.WriteChrome(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("export not deterministic")
	}
}

func TestWriteChromeNilTrace(t *testing.T) {
	var trace *Trace
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeJSON(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestValidateChromeJSONRejects(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"garbage", `{"traceEvents": [`},
		{"bad phase", `{"traceEvents":[{"ph":"B","pid":0,"tid":1,"name":"x","ts":1}]}`},
		{"missing dur", `{"traceEvents":[{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"a"}},{"ph":"X","pid":0,"tid":1,"name":"x","ts":1}]}`},
		{"unnamed tid", `{"traceEvents":[{"ph":"X","pid":0,"tid":1,"name":"x","ts":1,"dur":2}]}`},
		{"time goes backward", `{"traceEvents":[{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"a"}},{"ph":"X","pid":0,"tid":1,"name":"x","ts":10,"dur":2},{"ph":"X","pid":0,"tid":1,"name":"y","ts":5,"dur":2}]}`},
		{"same-id overlap", `{"traceEvents":[{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"a"}},{"ph":"X","pid":0,"tid":1,"name":"p","ts":0,"dur":10,"args":{"id":1}},{"ph":"X","pid":0,"tid":1,"name":"c","ts":5,"dur":10,"args":{"id":1}}]}`},
		// 50 + (2^64-1) wraps to 49, which would pass as nested in [0,100).
		{"wrapped end", `{"traceEvents":[{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"a"}},{"ph":"X","pid":0,"tid":1,"name":"p","ts":0,"dur":100,"args":{"id":1}},{"ph":"X","pid":0,"tid":1,"name":"c","ts":50,"dur":18446744073709551615,"args":{"id":1}}]}`},
	}
	for _, tc := range cases {
		if err := ValidateChromeJSON([]byte(tc.data)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Different-ID overlap on one track is legitimate (interleaved requests).
	ok := `{"traceEvents":[{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"a"}},{"ph":"X","pid":0,"tid":1,"name":"p","ts":0,"dur":10,"args":{"id":1}},{"ph":"X","pid":0,"tid":1,"name":"q","ts":5,"dur":10,"args":{"id":2}}]}`
	if err := ValidateChromeJSON([]byte(ok)); err != nil {
		t.Errorf("different-id overlap rejected: %v", err)
	}
}
