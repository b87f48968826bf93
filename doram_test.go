package doram

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

func TestORAMReadWrite(t *testing.T) {
	cfg := DefaultORAMConfig()
	cfg.Levels = 10
	o, err := NewORAM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Write(5, []byte("hello, oblivious world")); err != nil {
		t.Fatal(err)
	}
	got, err := o.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("hello, oblivious world")) {
		t.Fatalf("read back %q", got)
	}
	if o.Accesses() != 2 {
		t.Fatalf("accesses = %d, want 2", o.Accesses())
	}
	if o.BlocksPerAccess() != (cfg.Levels+1-cfg.TopCacheLevels)*cfg.Z {
		t.Fatalf("BlocksPerAccess = %d", o.BlocksPerAccess())
	}
	if o.Capacity() == 0 || o.BlockSize() != 64 {
		t.Fatal("capacity/block size accessors broken")
	}
	if o.StashHighWater() <= 0 {
		t.Fatal("stash high water not tracked")
	}
}

func TestORAMRejectsBadConfig(t *testing.T) {
	cfg := DefaultORAMConfig()
	cfg.Key = []byte("short")
	if _, err := NewORAM(cfg); err == nil {
		t.Fatal("bad key accepted")
	}
	cfg = DefaultORAMConfig()
	cfg.Levels = 0
	if _, err := NewORAM(cfg); err == nil {
		t.Fatal("zero levels accepted")
	}
}

func TestSimulatePublicAPI(t *testing.T) {
	cfg := DefaultSimConfig(SchemeDORAM, "libq")
	cfg.TraceLen = 2000
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NSFinish) != 7 || res.AvgNSExecCycles == 0 {
		t.Fatalf("result incomplete: %+v", res)
	}
	if res.ORAMAccesses == 0 || res.ORAMAccessNs == 0 {
		t.Fatal("ORAM stats missing for D-ORAM run")
	}
	if res.NSReadLatencyNs <= 0 {
		t.Fatal("read latency missing")
	}
}

func TestSimulateRejectsUnknownScheme(t *testing.T) {
	if _, err := Simulate(SimConfig{Params: Params{Scheme: "bogus", Benchmark: "libq", NumNS: intp(1), TraceLen: 10}}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestBenchmarksList(t *testing.T) {
	b := Benchmarks()
	if len(b) != 15 {
		t.Fatalf("benchmarks = %d, want 15", len(b))
	}
}

func TestRunExperimentTable1(t *testing.T) {
	out, err := RunExperiment("table1", ExperimentOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "50.0%") || !strings.Contains(out, "29.2%") {
		t.Fatalf("Table I output missing paper values:\n%s", out)
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment("fig99", ExperimentOptions{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestExperimentsListed(t *testing.T) {
	ids := Experiments()
	if len(ids) != 17 {
		t.Fatalf("experiments = %v", ids)
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate experiment id %q", id)
		}
		seen[id] = true
	}
	for _, want := range []string{"table1", "fig4", "fig13", "ablation-layout", "eviction"} {
		if !seen[want] {
			t.Fatalf("missing experiment %q", want)
		}
	}
}

// TestExperimentsGolden pins the text of every experiment at a tiny scale,
// so a change to how the sweeps are built or reduced cannot move a single
// byte of any table. Regenerate with
// `go test -run TestExperimentsGolden -update .` after intentional changes.
func TestExperimentsGolden(t *testing.T) {
	opts := ExperimentOptions{TraceLen: 300, Benchmarks: []string{"libq"}}
	var buf bytes.Buffer
	for _, id := range Experiments() {
		out, err := RunExperiment(id, opts)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		fmt.Fprintf(&buf, "### %s\n%s", id, out)
	}
	checkGolden(t, filepath.Join("testdata", "experiments_golden.txt"), buf.Bytes())
}

func TestORAMWithMerkleAndRecursion(t *testing.T) {
	cfg := DefaultORAMConfig()
	cfg.Levels = 10
	cfg.MerkleIntegrity = true
	cfg.RecursivePositionMap = true
	o, err := NewORAM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 30; i++ {
		if err := o.Write(i, []byte{byte(i)}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := uint64(0); i < 30; i++ {
		got, err := o.Read(i)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("block %d = %d", i, got[0])
		}
	}
	if o.PositionMapDepth() == 0 {
		t.Fatal("recursion not active")
	}
	if o.PositionMapAccesses() == 0 {
		t.Fatal("no map accesses counted")
	}
}

func TestRunExperimentCSV(t *testing.T) {
	out, err := RunExperimentCSV("table1", ExperimentOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "50.0%") || !strings.Contains(out, ",") {
		t.Fatalf("CSV output wrong:\n%s", out)
	}
}
