package trace

import (
	"testing"
	"testing/quick"
)

func TestMSCMatchesTableIII(t *testing.T) {
	want := map[string]float64{
		"black": 4.2, "face": 26.8, "ferret": 8.0, "fluid": 17.5,
		"stream": 12.9, "swapt": 10.9,
		"comm1": 7.3, "comm2": 12.6, "comm3": 4.2, "comm4": 3.7, "comm5": 4.5,
		"leslie": 23.1, "libq": 12.0,
		"mummer": 24.0, "tigr": 6.7,
	}
	specs := MSC()
	if len(specs) != 15 {
		t.Fatalf("MSC has %d benchmarks, want 15", len(specs))
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: invalid spec: %v", s.Name, err)
		}
		if w, ok := want[s.Name]; !ok || s.MPKI != w {
			t.Errorf("%s: MPKI = %v, want %v (Table III)", s.Name, s.MPKI, w)
		}
	}
}

func TestByName(t *testing.T) {
	s, ok := ByName("libq")
	if !ok || s.Suite != "SPEC" {
		t.Fatalf("ByName(libq) = %+v, %v", s, ok)
	}
	if _, ok := ByName("nosuch"); ok {
		t.Fatal("ByName accepted unknown benchmark")
	}
	if len(Names()) != 15 {
		t.Fatal("Names() length mismatch")
	}
	// Config validation looks a benchmark up on every job submit.
	if n := testing.AllocsPerRun(100, func() { ByName("face") }); n != 0 {
		t.Errorf("ByName allocates %v times per call", n)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	spec, _ := ByName("face")
	a := NewGenerator(spec, 42)
	b := NewGenerator(spec, 42)
	for i := 0; i < 10000; i++ {
		ra, _ := a.Next()
		rb, _ := b.Next()
		if ra != rb {
			t.Fatalf("record %d diverged: %+v vs %+v", i, ra, rb)
		}
	}
	c := NewGenerator(spec, 43)
	same := 0
	for i := 0; i < 1000; i++ {
		ra, _ := a.Next()
		rc, _ := c.Next()
		if ra == rc {
			same++
		}
	}
	if same > 100 {
		t.Fatalf("different seeds produced %d/1000 identical records", same)
	}
}

func TestGeneratorMPKICalibration(t *testing.T) {
	for _, spec := range MSC() {
		g := NewGenerator(spec, 7)
		st := Measure(g, 200000)
		got := st.MPKI()
		if got < spec.MPKI*0.9 || got > spec.MPKI*1.1 {
			t.Errorf("%s: measured MPKI %.2f, want %.1f +/- 10%%", spec.Name, got, spec.MPKI)
		}
		rf := st.ReadFrac()
		if rf < spec.ReadFrac-0.08 || rf > spec.ReadFrac+0.08 {
			t.Errorf("%s: measured read fraction %.2f, want %.2f +/- 0.08", spec.Name, rf, spec.ReadFrac)
		}
	}
}

func TestGeneratorAddressesLineAlignedAndBounded(t *testing.T) {
	spec, _ := ByName("mummer")
	g := NewGenerator(spec, 3)
	limit := uint64(spec.WorkingSetMB) << 20
	for i := 0; i < 50000; i++ {
		r, _ := g.Next()
		if r.Addr%LineBytes != 0 {
			t.Fatalf("record %d: address %#x not line aligned", i, r.Addr)
		}
		if r.Addr >= limit {
			t.Fatalf("record %d: address %#x outside working set %#x", i, r.Addr, limit)
		}
	}
}

func TestStreamersShowMoreSequentiality(t *testing.T) {
	seq := func(name string) float64 {
		spec, ok := ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		g := NewGenerator(spec, 11)
		var sequential, total int
		prev := uint64(0)
		for i := 0; i < 50000; i++ {
			r, _ := g.Next()
			if i > 0 && (r.Addr == prev+LineBytes || r.Addr == prev) {
				sequential++
			}
			prev = r.Addr
			total++
		}
		return float64(sequential) / float64(total)
	}
	if s, m := seq("libq"), seq("mummer"); s <= m {
		t.Errorf("libq sequentiality %.3f should exceed mummer's %.3f", s, m)
	}
	if s, b := seq("stream"), seq("black"); s <= b {
		t.Errorf("stream sequentiality %.3f should exceed black's %.3f", s, b)
	}
}

func TestLimit(t *testing.T) {
	spec, _ := ByName("black")
	l := Limit(NewGenerator(spec, 1), 5)
	for i := 0; i < 5; i++ {
		if _, ok := l.Next(); !ok {
			t.Fatalf("Limit ended early at %d", i)
		}
	}
	if _, ok := l.Next(); ok {
		t.Fatal("Limit yielded more than n records")
	}
	if l.Remaining() != 0 {
		t.Fatal("Remaining() nonzero after exhaustion")
	}
}

func TestSliceReader(t *testing.T) {
	recs := []Record{{Gap: 1, Addr: 64}, {Gap: 2, Write: true, Addr: 128}}
	r := NewSliceReader(recs)
	for i := range recs {
		got, ok := r.Next()
		if !ok || got != recs[i] {
			t.Fatalf("record %d: got %+v %v", i, got, ok)
		}
	}
	if _, ok := r.Next(); ok {
		t.Fatal("SliceReader yielded past end")
	}
}

func TestSpecValidateRejectsBad(t *testing.T) {
	good, _ := ByName("black")
	muts := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.MPKI = 0 },
		func(s *Spec) { s.ReadFrac = 1.2 },
		func(s *Spec) { s.StreamFrac = -0.1 },
		func(s *Spec) { s.Streams = 0 },
		func(s *Spec) { s.WorkingSetMB = 0 },
		func(s *Spec) { s.BurstProb = 1.0 },
	}
	for i, mut := range muts {
		s := good
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d: invalid spec accepted", i)
		}
	}
}

// TestPropertyMeasureConsistency checks Measure's accounting invariants
// over random generator prefixes.
func TestPropertyMeasureConsistency(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := uint64(nRaw)%5000 + 1
		spec, _ := ByName("comm2")
		st := Measure(NewGenerator(spec, seed), n)
		return st.Records == n &&
			st.Reads+st.Writes == st.Records &&
			st.Instrs >= st.Records &&
			st.UniqueLine <= st.Records && st.UniqueLine >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
