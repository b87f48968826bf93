package experiments

import (
	"doram/internal/core"
	"doram/internal/stats"
)

// Fig10Row holds one benchmark's NS execution time under tree expansion,
// normalized to plain D-ORAM (k=0).
type Fig10Row struct {
	Bench string
	K     [4]float64 // index = k; K[0] == 1.0 by construction
}

// Fig10Summary aggregates the tree-expansion sweep.
type Fig10Summary struct {
	Rows []Fig10Row
	// OverheadGMean[k] is the geometric-mean extra execution time of
	// D-ORAM+k over D-ORAM, for k in 1..3 (paper: 1.02%, 2.01%, 3.29%).
	OverheadGMean [4]float64
}

// Figure10 reproduces Figure 10: the performance impact of expanding the
// Path ORAM tree by k levels (capacity 4 GB -> 4*2^k GB) with the bottom
// k levels relocated to the normal channels.
func Figure10(o Options) (*Fig10Summary, *Table, error) {
	res, err := runBenches(o, func(b string) []core.Config {
		var cfgs []core.Config
		for k := 0; k <= 3; k++ {
			cfgs = append(cfgs, doramConfig(o, b, k, core.AllNS))
		}
		return cfgs
	})
	if err != nil {
		return nil, nil, err
	}

	sum := &Fig10Summary{}
	for i, b := range o.benchmarks() {
		row := Fig10Row{Bench: b}
		base := res[i][0].AvgNSFinish()
		for k, r := range res[i] {
			row.K[k] = r.AvgNSFinish() / base
		}
		sum.Rows = append(sum.Rows, row)
	}
	for k := 1; k <= 3; k++ {
		var vals []float64
		for _, r := range sum.Rows {
			vals = append(vals, r.K[k])
		}
		sum.OverheadGMean[k] = stats.GeoMean(vals) - 1
	}

	t := &Table{
		Title:  "Figure 10: NS execution time under tree expansion, normalized to D-ORAM (k=0)",
		Header: []string{"bench", "k=0", "k=1", "k=2", "k=3"},
	}
	for _, r := range sum.Rows {
		t.AddRow(r.Bench, f3(r.K[0]), f3(r.K[1]), f3(r.K[2]), f3(r.K[3]))
	}
	t.AddRow("gmean overhead", "-", pct(sum.OverheadGMean[1]), pct(sum.OverheadGMean[2]), pct(sum.OverheadGMean[3]))
	t.Notes = append(t.Notes, "paper reference: +1.02% (k=1), +2.01% (k=2), +3.29% (k=3)")
	return sum, t, nil
}
