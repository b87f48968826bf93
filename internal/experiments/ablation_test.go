package experiments

import "testing"

func TestAblationSubtreeLayout(t *testing.T) {
	sum, table, err := Ablation(opts(), "ablation-layout", "face")
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Rows) != 3 || table == nil {
		t.Fatalf("rows = %d", len(sum.Rows))
	}
	// The naive layout loses row-buffer locality: ORAM accesses take
	// longer than under the paper's 7-level subtrees.
	paper, naive := sum.Rows[0].ORAMAccessNs, sum.Rows[2].ORAMAccessNs
	if naive <= paper {
		t.Errorf("naive layout ORAM access %.0f ns not slower than subtree-7's %.0f ns", naive, paper)
	}
	t.Logf("ORAM access: subtree-7 %.0f ns, subtree-1 %.0f ns", paper, naive)
}

func TestAblationPace(t *testing.T) {
	sum, _, err := Ablation(opts(), "ablation-pace", "face")
	if err != nil {
		t.Fatal(err)
	}
	// A strongly throttled S-App (t=1000) must interfere less than the
	// paper's t=50.
	var t50, t1000 float64
	for _, r := range sum.Rows {
		switch r.Label {
		case "t=50 (paper)":
			t50 = r.NSExec
		case "t=1000":
			t1000 = r.NSExec
		}
	}
	if t1000 >= t50 {
		t.Errorf("NS exec at t=1000 (%.3f) not below t=50 (%.3f)", t1000, t50)
	}
}

func TestAblationLinkLatency(t *testing.T) {
	sum, _, err := Ablation(opts(), "ablation-link", "libq")
	if err != nil {
		t.Fatal(err)
	}
	var ns5, ns60 float64
	for _, r := range sum.Rows {
		switch r.Label {
		case "5ns":
			ns5 = r.NSExec
		case "60ns":
			ns60 = r.NSExec
		}
	}
	// Every NS read crosses the link twice: latency must monotonically
	// hurt execution time.
	if ns60 <= ns5 {
		t.Errorf("NS exec at 60ns link (%.3f) not above 5ns link (%.3f)", ns60, ns5)
	}
}

func TestAblationCoopThreshold(t *testing.T) {
	sum, _, err := Ablation(opts(), "ablation-coop", "face")
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Rows) != 3 {
		t.Fatalf("rows = %d", len(sum.Rows))
	}
	for _, r := range sum.Rows {
		if r.NSExec <= 0 || r.ORAMAccessNs <= 0 {
			t.Errorf("row %q incomplete: %+v", r.Label, r)
		}
	}
}

func TestAblationMemoryGen(t *testing.T) {
	sum, _, err := Ablation(opts(), "ablation-memgen", "face")
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Rows) != 2 {
		t.Fatalf("rows = %d", len(sum.Rows))
	}
	ddr3, ddr4 := sum.Rows[0], sum.Rows[1]
	// Faster devices with more bank parallelism must not slow things down.
	if ddr4.NSExec > ddr3.NSExec*1.05 {
		t.Errorf("DDR4 NS exec %.3f above DDR3's %.3f", ddr4.NSExec, ddr3.NSExec)
	}
	if ddr4.ORAMAccessNs > ddr3.ORAMAccessNs*1.05 {
		t.Errorf("DDR4 ORAM access %.0f ns above DDR3's %.0f ns", ddr4.ORAMAccessNs, ddr3.ORAMAccessNs)
	}
	t.Logf("DDR3 %.0fns vs DDR4 %.0fns ORAM access; NSexec %.3f vs %.3f",
		ddr3.ORAMAccessNs, ddr4.ORAMAccessNs, ddr3.NSExec, ddr4.NSExec)
}

func TestAblationPhaseOverlap(t *testing.T) {
	sum, _, err := Ablation(opts(), "ablation-overlap", "face")
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Rows) != 2 {
		t.Fatalf("rows = %d", len(sum.Rows))
	}
	for _, r := range sum.Rows {
		if r.NSExec <= 0 || r.ORAMAccessNs <= 0 {
			t.Fatalf("row %q incomplete", r.Label)
		}
	}
	t.Logf("buffered NSexec=%.3f vs overlapped NSexec=%.3f",
		sum.Rows[0].NSExec, sum.Rows[1].NSExec)
}
