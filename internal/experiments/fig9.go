package experiments

import (
	"strconv"

	"doram/internal/core"
	"doram/internal/stats"
)

// Fig9Row holds one benchmark's NS execution times normalized to the Path
// ORAM baseline (Figure 9's bars).
type Fig9Row struct {
	Bench     string
	DORAM     float64 // plain D-ORAM (c = all, k = 0)
	DORAMX    float64 // best c in 0..7 (D-ORAM/X)
	BestC     int
	DORAMk1   float64 // D-ORAM+1
	DORAMk1c4 float64 // D-ORAM+1/4
}

// Fig9Summary is the full Figure 9 sweep plus geometric means.
type Fig9Summary struct {
	Rows    []Fig9Row
	GeoMean Fig9Row
	// CSweep holds, per benchmark, the normalized execution time at every
	// c in 0..7 — the underlying data Figure 11 plots.
	CSweep map[string][8]float64
}

// Figure9 reproduces Figure 9: normalized NS execution time of D-ORAM,
// D-ORAM/X (best sharing), D-ORAM+1 and D-ORAM+1/4 against the Path ORAM
// baseline. The per-c sweep it computes is also Figure 11's data.
func Figure9(o Options) (*Fig9Summary, *Table, error) {
	res, err := runBenches(o, func(b string) []core.Config {
		return append(cSweep(o, b),
			doramConfig(o, b, 1, core.AllNS), // D-ORAM+1
			doramConfig(o, b, 1, 4),          // D-ORAM+1/4
		)
	})
	if err != nil {
		return nil, nil, err
	}

	sum := &Fig9Summary{CSweep: map[string][8]float64{}}
	for i, b := range o.benchmarks() {
		r := res[i]
		base := r[0].AvgNSFinish()
		sweep, best := bestC(r)
		sum.Rows = append(sum.Rows, Fig9Row{Bench: b,
			DORAM:     sweep[7],
			DORAMX:    sweep[best],
			BestC:     best,
			DORAMk1:   r[cSweepLen].AvgNSFinish() / base,
			DORAMk1c4: r[cSweepLen+1].AvgNSFinish() / base,
		})
		sum.CSweep[b] = sweep
	}
	var d, dx, dk, dkc []float64
	for _, r := range sum.Rows {
		d = append(d, r.DORAM)
		dx = append(dx, r.DORAMX)
		dk = append(dk, r.DORAMk1)
		dkc = append(dkc, r.DORAMk1c4)
	}
	sum.GeoMean = Fig9Row{Bench: "gmean",
		DORAM: stats.GeoMean(d), DORAMX: stats.GeoMean(dx), DORAMk1: stats.GeoMean(dk), DORAMk1c4: stats.GeoMean(dkc)}

	t := &Table{
		Title:  "Figure 9: NS execution time normalized to the Path ORAM baseline",
		Header: []string{"bench", "D-ORAM", "D-ORAM/X", "bestC", "D-ORAM+1", "D-ORAM+1/4"},
	}
	for _, r := range sum.Rows {
		t.AddRow(r.Bench, f3(r.DORAM), f3(r.DORAMX), itoa(r.BestC), f3(r.DORAMk1), f3(r.DORAMk1c4))
	}
	g := sum.GeoMean
	t.AddRow("gmean", f3(g.DORAM), f3(g.DORAMX), "-", f3(g.DORAMk1), f3(g.DORAMk1c4))
	t.Notes = append(t.Notes,
		"paper reference (gmean): D-ORAM 0.875, D-ORAM/X 0.775, D-ORAM+1 0.886, D-ORAM+1/4 0.814")
	return sum, t, nil
}

func itoa(v int) string { return strconv.Itoa(v) }
