package experiments

import (
	"doram/internal/core"
	"doram/internal/stats"
)

// Fig4Row holds one benchmark's co-run slowdowns (execution time over the
// 1NS solo run) for Figure 4's five scenarios.
type Fig4Row struct {
	Bench    string
	PathORAM float64 // 1S7NS, Path ORAM S-App
	SecMem   float64 // 1S7NS, secure-memory S-App
	NS4      float64 // 7NS-4ch (channel partition, S-App elsewhere)
	NS3      float64 // 7NS-3ch
}

// Fig4Summary aggregates Figure 4's best / worst / geometric-mean bars.
type Fig4Summary struct {
	Rows []Fig4Row
	// Best, Worst, GeoMean per scenario, in Row field order.
	Best, Worst, GeoMean Fig4Row
}

// Figure4 reproduces Figure 4: NS-App performance degradation under
// different co-run scenarios, normalized to solo execution.
func Figure4(o Options) (*Fig4Summary, *Table, error) {
	res, err := runBenches(o, func(b string) []core.Config {
		return []core.Config{
			soloConfig(o, b),
			baselineConfig(o, b),
			secureMemoryConfig(o, b),
			corunConfig(o, b, nil),
			corunConfig(o, b, []int{1, 2, 3}),
		}
	})
	if err != nil {
		return nil, nil, err
	}

	sum := &Fig4Summary{}
	for i, b := range o.benchmarks() {
		r := res[i]
		sum.Rows = append(sum.Rows, Fig4Row{
			Bench:    b,
			PathORAM: r[1].Slowdown(r[0]),
			SecMem:   r[2].Slowdown(r[0]),
			NS4:      r[3].Slowdown(r[0]),
			NS3:      r[4].Slowdown(r[0]),
		})
	}
	sum.summarize()

	t := &Table{
		Title:  "Figure 4: NS-App slowdown vs solo (1NS) under co-run scenarios",
		Header: []string{"bench", "1S7NS(PathORAM)", "1S7NS(SecMem)", "7NS-4ch", "7NS-3ch"},
	}
	for _, r := range sum.Rows {
		t.AddRow(r.Bench, f2(r.PathORAM), f2(r.SecMem), f2(r.NS4), f2(r.NS3))
	}
	t.AddRow("best", f2(sum.Best.PathORAM), f2(sum.Best.SecMem), f2(sum.Best.NS4), f2(sum.Best.NS3))
	t.AddRow("worst", f2(sum.Worst.PathORAM), f2(sum.Worst.SecMem), f2(sum.Worst.NS4), f2(sum.Worst.NS3))
	t.AddRow("gmean", f2(sum.GeoMean.PathORAM), f2(sum.GeoMean.SecMem), f2(sum.GeoMean.NS4), f2(sum.GeoMean.NS3))
	t.Notes = append(t.Notes,
		"paper reference: PathORAM worst 5.26x / avg 1.906x; 7NS-4ch avg 1.43x; 7NS-3ch avg 1.57x")
	return sum, t, nil
}

func (s *Fig4Summary) summarize() {
	pick := func(get func(Fig4Row) float64) (best, worst, gm float64) {
		var vals []float64
		for _, r := range s.Rows {
			vals = append(vals, get(r))
		}
		best, worst = vals[0], vals[0]
		for _, v := range vals {
			if v < best {
				best = v
			}
			if v > worst {
				worst = v
			}
		}
		return best, worst, stats.GeoMean(vals)
	}
	s.Best.PathORAM, s.Worst.PathORAM, s.GeoMean.PathORAM = pick(func(r Fig4Row) float64 { return r.PathORAM })
	s.Best.SecMem, s.Worst.SecMem, s.GeoMean.SecMem = pick(func(r Fig4Row) float64 { return r.SecMem })
	s.Best.NS4, s.Worst.NS4, s.GeoMean.NS4 = pick(func(r Fig4Row) float64 { return r.NS4 })
	s.Best.NS3, s.Worst.NS3, s.GeoMean.NS3 = pick(func(r Fig4Row) float64 { return r.NS3 })
}
