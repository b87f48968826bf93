package experiments

import "fmt"

// experiment is one reproducible table or figure. Single-benchmark
// experiments study the first of Options.Benchmarks, or bench when none is
// given; run receives the benchmark so chosen.
type experiment struct {
	id    string
	bench string
	run   func(o Options, bench string) (*Table, error)
}

// registry lists the experiments in presentation order: the paper's tables
// and figures, then the studies of the design choices DESIGN.md calls out.
var registry = func() []experiment {
	r := []experiment{
		{id: "table1", run: func(Options, string) (*Table, error) { _, t := TableI(); return t, nil }},
		{id: "fig4", run: sweep(Figure4)},
		{id: "fig8", bench: "black", run: func(o Options, b string) (*Table, error) {
			_, t, err := Figure8(o, b)
			return t, err
		}},
		{id: "fig9", run: sweep(Figure9)},
		{id: "fig10", run: sweep(Figure10)},
		{id: "fig11", run: sweep(Figure11)},
		{id: "fig12", run: sweep(Figure12)},
		{id: "fig13", run: sweep(Figure13)},
		{id: "sapp", run: sweep(SAppImpact)},
	}
	for _, a := range ablations {
		r = append(r, experiment{id: a.id, bench: "face", run: func(o Options, b string) (*Table, error) {
			_, t, err := runAblation(o, a, b)
			return t, err
		}})
	}
	return append(r, experiment{id: "eviction", run: sweep(EvictionAblation)})
}()

// sweep adapts an experiment over every benchmark of the options to the
// registry's run signature.
func sweep[S any](f func(Options) (S, *Table, error)) func(Options, string) (*Table, error) {
	return func(o Options, _ string) (*Table, error) {
		_, t, err := f(o)
		return t, err
	}
}

// IDs lists the experiment identifiers in presentation order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// Run regenerates the experiment named id and returns its table.
func Run(id string, o Options) (*Table, error) {
	for _, e := range registry {
		if e.id != id {
			continue
		}
		bench := e.bench
		if len(o.Benchmarks) > 0 {
			bench = o.Benchmarks[0]
		}
		return e.run(o, bench)
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (want one of %v)", id, IDs())
}
