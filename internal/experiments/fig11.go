package experiments

import "doram/internal/core"

// cSweepLen is a c-sweep's run count per benchmark: the Path ORAM
// baseline, then D-ORAM at c = 0..7.
const cSweepLen = 1 + 8

// cSweep returns one benchmark's c-sweep, the study Figures 9, 11 and 12
// share: the Path ORAM baseline, then D-ORAM letting c = 0..7 of the seven
// NS-Apps allocate on the secure channel (c = 7 runs like plain D-ORAM).
func cSweep(o Options, bench string) []core.Config {
	cfgs := []core.Config{baselineConfig(o, bench)}
	for c := 0; c <= 7; c++ {
		cfgs = append(cfgs, doramConfig(o, bench, 0, c))
	}
	return cfgs
}

// bestC reduces a c-sweep's results (cSweep order) to the NS execution time
// at every c normalized to the baseline, and the c minimizing it (the
// smallest such c on ties).
func bestC(res []*core.Results) (norm [8]float64, best int) {
	base := res[0].AvgNSFinish()
	for c := range norm {
		norm[c] = res[1+c].AvgNSFinish() / base
		if norm[c] < norm[best] {
			best = c
		}
	}
	return norm, best
}

// Fig11Row holds one benchmark's normalized execution time at every
// secure-channel sharing setting, plus the channel-partition references.
type Fig11Row struct {
	Bench string
	C     [8]float64 // normalized execution time at c = 0..7
	BestC int
	NS3   float64 // 7NS-3ch reference
	NS4   float64 // 7NS-4ch reference
}

// Fig11Summary is the full sharing sweep.
type Fig11Summary struct {
	Rows []Fig11Row
}

// Figure11 reproduces Figure 11: the performance impact of allowing c of
// the seven NS-Apps to allocate on the secure channel, with the 7NS-3ch
// and 7NS-4ch partitions for comparison. Values are normalized to the
// Path ORAM baseline, like Figure 9.
func Figure11(o Options) (*Fig11Summary, *Table, error) {
	res, err := runBenches(o, func(b string) []core.Config {
		return append(cSweep(o, b),
			corunConfig(o, b, []int{1, 2, 3}),
			corunConfig(o, b, nil),
		)
	})
	if err != nil {
		return nil, nil, err
	}

	sum := &Fig11Summary{}
	for i, b := range o.benchmarks() {
		r := res[i]
		base := r[0].AvgNSFinish()
		row := Fig11Row{Bench: b,
			NS3: r[cSweepLen].AvgNSFinish() / base,
			NS4: r[cSweepLen+1].AvgNSFinish() / base,
		}
		row.C, row.BestC = bestC(r)
		sum.Rows = append(sum.Rows, row)
	}

	t := &Table{
		Title: "Figure 11: NS execution time vs secure-channel sharing c (normalized to baseline)",
		Header: []string{"bench", "c=0", "c=1", "c=2", "c=3", "c=4", "c=5", "c=6", "c=7",
			"bestC", "7NS-3ch", "7NS-4ch"},
	}
	for _, r := range sum.Rows {
		t.AddRow(r.Bench,
			f3(r.C[0]), f3(r.C[1]), f3(r.C[2]), f3(r.C[3]),
			f3(r.C[4]), f3(r.C[5]), f3(r.C[6]), f3(r.C[7]),
			itoa(r.BestC), f3(r.NS3), f3(r.NS4))
	}
	return sum, t, nil
}
