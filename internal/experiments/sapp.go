package experiments

import "doram/internal/core"

// SAppRow holds one benchmark's S-App-side ORAM timing under the Path
// ORAM baseline and D-ORAM.
type SAppRow struct {
	Bench string
	// Mean ORAM access time (read + write phase), nanoseconds.
	BaselineNs float64
	DORAMNs    float64
	// OverheadNs is the D-ORAM minus baseline access time: the BOB
	// delegation cost §V-E argues is tens of ns against thousands.
	OverheadNs float64
}

// SAppSummary aggregates the §V-E study of D-ORAM's impact on the S-App.
type SAppSummary struct {
	Rows []SAppRow
}

// SAppImpact reproduces the §V-E analysis: Path ORAM accesses take
// thousands of nanoseconds, so the tens of nanoseconds the BOB link and
// delegation add are negligible for the S-App.
func SAppImpact(o Options) (*SAppSummary, *Table, error) {
	res, err := runBenches(o, func(b string) []core.Config {
		return []core.Config{baselineConfig(o, b), doramConfig(o, b, 0, core.AllNS)}
	})
	if err != nil {
		return nil, nil, err
	}
	sum := &SAppSummary{}
	for i, b := range o.benchmarks() {
		row := SAppRow{Bench: b, BaselineNs: res[i][0].ORAMAccessNs(), DORAMNs: res[i][1].ORAMAccessNs()}
		row.OverheadNs = row.DORAMNs - row.BaselineNs
		sum.Rows = append(sum.Rows, row)
	}

	t := &Table{
		Title:  "S-App impact (§V-E): mean ORAM access time per scheme (ns)",
		Header: []string{"bench", "baseline", "D-ORAM", "delta"},
	}
	for _, r := range sum.Rows {
		t.AddRow(r.Bench, f2(r.BaselineNs), f2(r.DORAMNs), f2(r.OverheadNs))
	}
	t.Notes = append(t.Notes,
		"paper: ORAM accesses take thousands of ns; the BOB architecture adds only tens of ns")
	return sum, t, nil
}
