package experiments

import (
	"doram/internal/core"
	"doram/internal/stats"
)

// Fig13Row holds one benchmark's NS memory access latencies normalized to
// the Path ORAM baseline, for the representative D-ORAM configurations of
// §V-D (D-ORAM+1 for space expansion, D-ORAM/4 for channel sharing).
type Fig13Row struct {
	Bench        string
	ReadDORAMk1  float64
	WriteDORAMk1 float64
	ReadDORAMc4  float64
	WriteDORAMc4 float64
}

// Fig13Summary aggregates the latency study.
type Fig13Summary struct {
	Rows []Fig13Row
	// Geometric means across benchmarks (paper: reads ~0.70, writes ~0.48).
	ReadGMean, WriteGMean float64
}

// Figure13 reproduces Figure 13: the average NS-App read and write access
// latency reduction of D-ORAM over the Path ORAM baseline.
func Figure13(o Options) (*Fig13Summary, *Table, error) {
	res, err := runBenches(o, func(b string) []core.Config {
		return []core.Config{
			baselineConfig(o, b),
			doramConfig(o, b, 1, core.AllNS), // D-ORAM+1
			doramConfig(o, b, 0, 4),          // D-ORAM/4
		}
	})
	if err != nil {
		return nil, nil, err
	}

	sum := &Fig13Summary{}
	var reads, writes []float64
	for i, b := range o.benchmarks() {
		base, k1, c4 := res[i][0], res[i][1], res[i][2]
		row := Fig13Row{
			Bench:        b,
			ReadDORAMk1:  k1.AvgReadLatency() / base.AvgReadLatency(),
			WriteDORAMk1: k1.AvgWriteLatency() / base.AvgWriteLatency(),
			ReadDORAMc4:  c4.AvgReadLatency() / base.AvgReadLatency(),
			WriteDORAMc4: c4.AvgWriteLatency() / base.AvgWriteLatency(),
		}
		sum.Rows = append(sum.Rows, row)
		reads = append(reads, row.ReadDORAMk1, row.ReadDORAMc4)
		writes = append(writes, row.WriteDORAMk1, row.WriteDORAMc4)
	}
	sum.ReadGMean = stats.GeoMean(reads)
	sum.WriteGMean = stats.GeoMean(writes)

	t := &Table{
		Title:  "Figure 13: NS memory access latency normalized to the Path ORAM baseline",
		Header: []string{"bench", "read(+1)", "write(+1)", "read(/4)", "write(/4)"},
	}
	for _, r := range sum.Rows {
		t.AddRow(r.Bench, f3(r.ReadDORAMk1), f3(r.WriteDORAMk1), f3(r.ReadDORAMc4), f3(r.WriteDORAMc4))
	}
	t.AddRow("gmean", f3(sum.ReadGMean), "-", "-", f3(sum.WriteGMean))
	t.Notes = append(t.Notes, "paper reference: reads reduced to ~70% of baseline, writes to ~48%")
	return sum, t, nil
}
