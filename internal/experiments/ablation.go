package experiments

import (
	"fmt"

	"doram/internal/core"
)

// AblationRow is one configuration point of a design-choice sweep.
type AblationRow struct {
	Label string
	// NSExec is the average NS execution time normalized to the sweep's
	// first row.
	NSExec float64
	// ORAMAccessNs is the S-App's mean ORAM access time.
	ORAMAccessNs float64
}

// AblationSummary is one completed sweep.
type AblationSummary struct {
	Name string
	Rows []AblationRow
}

// ablation is one design-choice sweep over the 1S7NS D-ORAM co-run: set
// applies row i's setting to the plain D-ORAM config. Row 0 is the
// paper's choice, which the other rows are normalized to.
type ablation struct {
	id, title string
	labels    []string
	set       func(cfg *core.Config, i int)
}

// ablations lists the design-choice sweeps in presentation order.
var ablations = []ablation{
	// The subtree layout of Ren et al. [32]: depth 7 (the paper's choice,
	// near-perfect row hits along a path) versus depth 1 (naive
	// level-order layout, a row miss per level).
	{"ablation-layout", "ORAM subtree layout depth",
		[]string{"subtree-7 (paper)", "subtree-4", "subtree-1 (naive)"},
		func(c *core.Config, i int) { c.SubtreeLevels = []int{7, 4, 1}[i] }},
	// The timing-protection interval t (§III-B, paper t=50): smaller t
	// means a denser ORAM request stream and more interference; larger t
	// throttles the S-App.
	{"ablation-pace", "timing-protection pace t",
		[]string{"t=50 (paper)", "t=10", "t=200", "t=1000"},
		func(c *core.Config, i int) { c.Pace = []uint64{50, 10, 200, 1000}[i] }},
	// The BOB buffer-logic+link latency (Table II, 15 ns from Twin-Load):
	// D-ORAM's NS path crosses the link twice per read, so this prices the
	// architecture's fixed cost.
	{"ablation-link", "BOB link latency",
		[]string{"15ns (paper)", "5ns", "30ns", "60ns"},
		func(c *core.Config, i int) { c.LinkLatencyNs = []float64{15, 5, 30, 60}[i] }},
	// The cooperative bandwidth-preallocation share (§IV, paper 0.5):
	// higher shares favour the S-App on the secure channel at the
	// NS-Apps' cost.
	{"ablation-coop", "cooperative preallocation threshold",
		[]string{"50% (paper)", "25%", "75%"},
		func(c *core.Config, i int) { c.CoopThreshold = []float64{0.5, 0.25, 0.75}[i] }},
	// The paper's DDR3-1600 memory against DDR4-2400 (bank groups, higher
	// rate).
	{"ablation-memgen", "memory generation",
		[]string{"DDR3-1600 (paper)", "DDR4-2400"},
		func(c *core.Config, i int) { c.DDR4 = i == 1 }},
	// The paper's strict phase buffering (§III-B) against the read/write
	// phase overlap of Wang et al. [39].
	{"ablation-overlap", "SD phase pipelining",
		[]string{"buffered (paper)", "overlapped [39]"},
		func(c *core.Config, i int) { c.OverlapPhases = i == 1 }},
	// D-ORAM with and without the Fork Path redundant-access elimination
	// [44].
	{"ablation-forkpath", "fork-path elimination",
		[]string{"full paths (paper)", "fork path [44]"},
		func(c *core.Config, i int) { c.ForkPath = i == 1 }},
}

// Ablation runs the design-choice sweep named id (an "ablation-*"
// experiment) on one benchmark.
func Ablation(o Options, id, bench string) (*AblationSummary, *Table, error) {
	for _, a := range ablations {
		if a.id == id {
			return runAblation(o, a, bench)
		}
	}
	return nil, nil, fmt.Errorf("experiments: unknown ablation %q", id)
}

// runAblation executes one sweep and normalizes NS execution to its first
// row.
func runAblation(o Options, a ablation, bench string) (*AblationSummary, *Table, error) {
	cfgs := make([]core.Config, len(a.labels))
	for i := range cfgs {
		cfgs[i] = doramConfig(o, bench, 0, core.AllNS)
		a.set(&cfgs[i], i)
	}
	res, err := runAll(o, cfgs)
	if err != nil {
		return nil, nil, err
	}
	sum := &AblationSummary{Name: a.title + " (" + bench + ")"}
	base := res[0].AvgNSFinish()
	for i, r := range res {
		sum.Rows = append(sum.Rows, AblationRow{Label: a.labels[i], NSExec: r.AvgNSFinish() / base, ORAMAccessNs: r.ORAMAccessNs()})
	}
	t := &Table{Title: "Ablation: " + sum.Name, Header: []string{"config", "NS exec (norm)", "ORAM access (ns)"}}
	for _, r := range sum.Rows {
		t.AddRow(r.Label, f3(r.NSExec), f2(r.ORAMAccessNs))
	}
	return sum, t, nil
}
