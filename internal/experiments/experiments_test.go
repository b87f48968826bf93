package experiments

import (
	"bytes"
	"math"
	"os"
	"sync/atomic"
	"testing"

	"doram/internal/core"
	"doram/internal/evtrace"
)

// opts returns a reduced sweep that still exhibits the paper's trends.
func opts() Options {
	o := QuickOptions()
	return o
}

func TestTableIMatchesPaper(t *testing.T) {
	rows, table := TableI()
	want := []struct{ ch0, normal float64 }{
		{0.500, 0.167}, {0.250, 0.250}, {0.125, 0.292},
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for i, r := range rows {
		if math.Abs(r.Ch0Share-want[i].ch0) > 0.002 {
			t.Errorf("k=%d: ch0 share %.3f, want %.3f", r.K, r.Ch0Share, want[i].ch0)
		}
		if math.Abs(r.NormalShare-want[i].normal) > 0.002 {
			t.Errorf("k=%d: normal share %.3f, want %.3f", r.K, r.NormalShare, want[i].normal)
		}
		if r.Ch0Messages != 4*r.K || r.NormalMsgMin != r.K || r.NormalMsgMax != 2*r.K {
			t.Errorf("k=%d: messages %d/%d..%d, want %d/%d..%d",
				r.K, r.Ch0Messages, r.NormalMsgMin, r.NormalMsgMax, 4*r.K, r.K, 2*r.K)
		}
	}
	var buf bytes.Buffer
	table.Fprint(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty table rendering")
	}
}

func TestFigure4Shape(t *testing.T) {
	sum, table, err := Figure4(opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Rows) != 3 {
		t.Fatalf("rows = %d", len(sum.Rows))
	}
	g := sum.GeoMean
	// Paper-shape assertions: Path ORAM co-run is the worst scenario;
	// 3-channel partition is worse than 4-channel; everything slower than
	// solo.
	if !(g.PathORAM > g.NS4) {
		t.Errorf("PathORAM gmean %.2f not above 7NS-4ch %.2f", g.PathORAM, g.NS4)
	}
	if !(g.NS3 > g.NS4) {
		t.Errorf("7NS-3ch gmean %.2f not above 7NS-4ch %.2f", g.NS3, g.NS4)
	}
	for _, v := range []float64{g.PathORAM, g.SecMem, g.NS4, g.NS3} {
		if v < 1.0 {
			t.Errorf("co-run scenario faster than solo: %+v", g)
		}
	}
	var buf bytes.Buffer
	table.Fprint(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty table")
	}
}

func TestFigure9Shape(t *testing.T) {
	sum, _, err := Figure9(opts())
	if err != nil {
		t.Fatal(err)
	}
	g := sum.GeoMean
	if g.DORAM >= 1.0 {
		t.Errorf("D-ORAM gmean %.3f not below baseline", g.DORAM)
	}
	if g.DORAMX > g.DORAM+1e-9 {
		t.Errorf("D-ORAM/X gmean %.3f above plain D-ORAM %.3f", g.DORAMX, g.DORAM)
	}
	for _, r := range sum.Rows {
		sweep, ok := sum.CSweep[r.Bench]
		if !ok {
			t.Fatalf("%s: missing c-sweep data", r.Bench)
		}
		if r.DORAMX != sweep[r.BestC] {
			t.Errorf("%s: DORAMX %.3f disagrees with sweep[bestC=%d] = %.3f",
				r.Bench, r.DORAMX, r.BestC, sweep[r.BestC])
		}
		for c := 0; c <= 7; c++ {
			if sweep[c] < r.DORAMX-1e-9 {
				t.Errorf("%s: sweep[%d] = %.3f below reported best %.3f",
					r.Bench, c, sweep[c], r.DORAMX)
			}
		}
		if r.DORAM != sweep[7] {
			t.Errorf("%s: plain D-ORAM %.3f should equal sweep[7] %.3f", r.Bench, r.DORAM, sweep[7])
		}
	}
}

func TestFigure10Shape(t *testing.T) {
	sum, _, err := Figure10(opts())
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 3; k++ {
		ov := sum.OverheadGMean[k]
		if ov < -0.02 || ov > 0.30 {
			t.Errorf("k=%d overhead %.1f%% outside plausible range", k, ov*100)
		}
	}
	if !(sum.OverheadGMean[3] >= sum.OverheadGMean[1]-0.02) {
		t.Errorf("k=3 overhead %.3f not above k=1 %.3f", sum.OverheadGMean[3], sum.OverheadGMean[1])
	}
}

func TestFigure13Shape(t *testing.T) {
	sum, _, err := Figure13(opts())
	if err != nil {
		t.Fatal(err)
	}
	if sum.ReadGMean >= 1.0 {
		t.Errorf("read latency gmean %.3f not reduced vs baseline", sum.ReadGMean)
	}
	if sum.WriteGMean >= 1.0 {
		t.Errorf("write latency gmean %.3f not reduced vs baseline", sum.WriteGMean)
	}
	// Paper: writes improve more than reads (0.48 vs 0.70).
	if sum.WriteGMean > sum.ReadGMean {
		t.Errorf("write gmean %.3f above read gmean %.3f; paper shows writes improve more",
			sum.WriteGMean, sum.ReadGMean)
	}
}

func TestFigure8Shape(t *testing.T) {
	sum, _, err := Figure8(opts(), "black")
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Rows) != 4 {
		t.Fatalf("rows = %d", len(sum.Rows))
	}
	// D-ORAM c=all: the secure channel must be the slowest channel.
	dorAll := sum.Rows[2]
	for ch := 1; ch < 4; ch++ {
		if dorAll.Chan[0] < dorAll.Chan[ch] {
			t.Errorf("secure channel latency %.1f below channel %d's %.1f under c=all",
				dorAll.Chan[0], ch, dorAll.Chan[ch])
		}
	}
	// 3-channel partition has higher per-channel latency than 4-channel.
	if sum.Rows[1].Chan[1] <= sum.Rows[0].Chan[1] {
		t.Errorf("3ch latency %.1f not above 4ch latency %.1f",
			sum.Rows[1].Chan[1], sum.Rows[0].Chan[1])
	}
}

func TestFigure12Runs(t *testing.T) {
	sum, _, err := Figure12(opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Rows) != 3 {
		t.Fatalf("rows = %d", len(sum.Rows))
	}
	for _, r := range sum.Rows {
		if r.T25mix <= 0 || r.T33 <= 0 || r.Ratio <= 0 {
			t.Errorf("%s: non-positive profiling values %+v", r.Bench, r)
		}
	}
}

func TestSAppImpactRuns(t *testing.T) {
	sum, _, err := SAppImpact(opts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sum.Rows {
		// §V-E: accesses in the hundreds-to-thousands of ns; delegation
		// overhead well below the access time itself.
		if r.BaselineNs < 50 || r.BaselineNs > 50000 {
			t.Errorf("%s: baseline access %.0f ns implausible", r.Bench, r.BaselineNs)
		}
		if r.OverheadNs > r.BaselineNs {
			t.Errorf("%s: delegation overhead %.0f ns exceeds the access itself", r.Bench, r.OverheadNs)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := DefaultOptions()
	if len(o.benchmarks()) != 15 {
		t.Fatalf("default benchmarks = %d, want 15", len(o.benchmarks()))
	}
	q := QuickOptions()
	if len(q.benchmarks()) >= 15 {
		t.Fatal("quick options should reduce the benchmark set")
	}
}

// TestTraceDirKeepsRing: a sweep that dumps Chrome traces asks for the
// event ring the dump reads; a sweep without one traces nothing.
func TestTraceDirKeepsRing(t *testing.T) {
	base := core.DefaultConfig(core.DORAM, "face")
	if cfg := opts().apply(base); cfg.TraceEvents || cfg.TraceLimit != 0 {
		t.Fatalf("untraced sweep: TraceEvents %v, TraceLimit %d", cfg.TraceEvents, cfg.TraceLimit)
	}
	o := opts()
	o.TraceDir = t.TempDir()
	if cfg := o.apply(base); !cfg.TraceEvents || cfg.TraceLimit != evtrace.DefaultLimit {
		t.Fatalf("trace-dir sweep: TraceEvents %v, TraceLimit %d, want ring of %d",
			cfg.TraceEvents, cfg.TraceLimit, evtrace.DefaultLimit)
	}
}

// TestOneDumpPerRun: every run an experiment executes leaves exactly one
// metrics dump and one trace dump, so no batch of a sweep overwrites
// another batch's files.
func TestOneDumpPerRun(t *testing.T) {
	count := func(dir string) int {
		files, err := os.ReadDir(dir)
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		return len(files)
	}
	for _, id := range IDs() {
		o := Options{TraceLen: 300, Seed: 42, Benchmarks: []string{"libq"},
			MetricsDir: t.TempDir() + "/m", TraceDir: t.TempDir() + "/t"}
		var runs atomic.Int64
		o.Exec = func(cfg core.Config) (*core.Results, error) {
			runs.Add(1)
			return Options{}.run(cfg)
		}
		if _, err := Run(id, o); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		n := int(runs.Load())
		if m, tr := count(o.MetricsDir), count(o.TraceDir); m != n || tr != n {
			t.Errorf("%s: %d runs left %d metrics and %d trace dumps", id, n, m, tr)
		}
	}
}

func TestTableCSV(t *testing.T) {
	_, table := TableI()
	var buf bytes.Buffer
	if err := table.Fcsv(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(buf.Bytes(), []byte("\n"))
	if lines != 1+len(table.Rows) {
		t.Fatalf("CSV has %d lines, want %d", lines, 1+len(table.Rows))
	}
}
