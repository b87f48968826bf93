package experiments

import "doram/internal/core"

// EnergyRow is one benchmark's DRAM energy per scheme, normalized to the
// solo run.
type EnergyRow struct {
	Bench    string
	Solo     float64 // microjoules (absolute reference)
	PathORAM float64 // normalized to solo
	DORAM    float64
	SecMem   float64
}

// EnergyStudy compares the memory system's DRAM energy across protection
// schemes — a consequence of ORAM's ~170x traffic amplification the paper
// does not quantify but a deployment would care about.
func EnergyStudy(o Options) ([]EnergyRow, *Table, error) {
	res, err := runBenches(o, func(b string) []core.Config {
		return []core.Config{
			soloConfig(o, b),
			baselineConfig(o, b),
			doramConfig(o, b, 0, core.AllNS),
			secureMemoryConfig(o, b),
		}
	})
	if err != nil {
		return nil, nil, err
	}
	var rows []EnergyRow
	for i, b := range o.benchmarks() {
		r := res[i]
		solo := r[0].TotalEnergyUJ()
		rows = append(rows, EnergyRow{
			Bench:    b,
			Solo:     solo,
			PathORAM: r[1].TotalEnergyUJ() / solo,
			DORAM:    r[2].TotalEnergyUJ() / solo,
			SecMem:   r[3].TotalEnergyUJ() / solo,
		})
	}
	t := &Table{
		Title:  "DRAM energy per run, normalized to the 1NS solo execution",
		Header: []string{"bench", "solo (uJ)", "path-oram", "d-oram", "secure-mem"},
	}
	for _, r := range rows {
		t.AddRow(r.Bench, f2(r.Solo), f2(r.PathORAM), f2(r.DORAM), f2(r.SecMem))
	}
	t.Notes = append(t.Notes,
		"ORAM's traffic amplification dominates: both ORAM schemes burn several times the solo energy;",
		"D-ORAM shifts the burn onto the secure channel rather than reducing it")
	return rows, t, nil
}
