package experiments

import "doram/internal/core"

// Fig12Row holds one benchmark's profiled ratio and the sharing setting it
// predicts, against the measured optimum.
type Fig12Row struct {
	Bench   string
	T25mix  float64 // latency slowdown, all 4 channels shared with S-App
	T33     float64 // latency slowdown, 3 normal channels only
	Ratio   float64 // T25mix / T33
	Predict string  // "c<4" when Ratio > 1, else "c>=4"
	BestC   int     // measured optimum from the evaluation segment
	Agree   bool
}

// Fig12Summary aggregates the profiling study.
type Fig12Summary struct {
	Rows     []Fig12Row
	Accuracy float64 // fraction of benchmarks the ratio classifies correctly
}

// Figure12 reproduces Figure 12: profiling a different trace segment
// yields T25mix and T33 (§III-D); the ratio r = T25mix/T33 predicts
// whether a benchmark prefers few (r > 1) or many (r < 1) NS-Apps on the
// secure channel. Predictions are checked against the measured best c of
// the evaluation segment (Figure 11's c-sweep).
func Figure12(o Options) (*Fig12Summary, *Table, error) {
	// Profiling segment: a different part of the trace, i.e. another seed.
	prof := o
	prof.Seed = o.Seed ^ 0x70f11e
	res, err := runBenches(o, func(b string) []core.Config {
		return append([]core.Config{
			soloConfig(prof, b),
			doramConfig(prof, b, 0, core.AllNS), // T25mix: all share
			doramConfig(prof, b, 0, 0),          // T33: normal channels only
		}, cSweep(o, b)...)
	})
	if err != nil {
		return nil, nil, err
	}

	sum := &Fig12Summary{}
	agree := 0
	for i, b := range o.benchmarks() {
		r := res[i]
		row := Fig12Row{
			Bench:  b,
			T25mix: r[1].LatencySlowdown(r[0]),
			T33:    r[2].LatencySlowdown(r[0]),
		}
		_, row.BestC = bestC(r[3:])
		if row.T33 > 0 {
			row.Ratio = row.T25mix / row.T33
		}
		if row.Ratio > 1 {
			row.Predict = "c<4"
			row.Agree = row.BestC < 4
		} else {
			row.Predict = "c>=4"
			row.Agree = row.BestC >= 4
		}
		if row.Agree {
			agree++
		}
		sum.Rows = append(sum.Rows, row)
	}
	if len(sum.Rows) > 0 {
		sum.Accuracy = float64(agree) / float64(len(sum.Rows))
	}

	t := &Table{
		Title:  "Figure 12: profiled T25mix/T33 ratio vs measured best sharing c",
		Header: []string{"bench", "T25mix", "T33", "ratio", "predicts", "bestC", "agree"},
	}
	for _, r := range sum.Rows {
		t.AddRow(r.Bench, f2(r.T25mix), f2(r.T33), f3(r.Ratio), r.Predict, itoa(r.BestC), boolStr(r.Agree))
	}
	t.AddRow("accuracy", "-", "-", "-", "-", "-", pct(sum.Accuracy))
	t.Notes = append(t.Notes,
		"paper: the ratio guides c for all benchmarks except one near-1.0 case (c2)")
	return sum, t, nil
}

func boolStr(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
