package doram

import (
	"bytes"
	"fmt"

	"doram/internal/experiments"
)

// ExperimentOptions scales a figure/table reproduction.
type ExperimentOptions struct {
	// TraceLen is the memory accesses each core replays per run; 0 uses
	// the evaluation default.
	TraceLen uint64
	// Seed drives all randomness.
	Seed uint64
	// Benchmarks restricts the workload set; nil runs all 15 (Table III).
	Benchmarks []string
	// Quick reduces the sweep for smoke runs and benchmarks.
	Quick bool
	// MetricsDir, when set, enables the observability subsystem on every
	// run of the sweep and writes one metric dump JSON per run into the
	// directory (created if missing).
	MetricsDir string
	// MetricsEpochCycles overrides the timeline sampling period; 0 uses
	// DefaultMetricsEpochCycles. Only meaningful with MetricsDir.
	MetricsEpochCycles uint64
	// TraceDir, when set, enables per-access event tracing on every run
	// (ORAM spans only, sampled) and writes one Chrome trace JSON per run
	// into the directory (created if missing).
	TraceDir string
	// Eviction, when non-empty, selects the S-App eviction strategy for
	// every run (names: EvictionStrategies()).
	Eviction string
	// Endpoint, when set, offloads runs to a doramd simulation service at
	// this base URL instead of simulating in-process; identical runs are
	// served from the service's result cache. Not combinable with TraceDir
	// (span traces stay on the server).
	Endpoint string
}

func (o ExperimentOptions) internal() (experiments.Options, error) {
	io := experiments.DefaultOptions()
	if o.Quick {
		io = experiments.QuickOptions()
	}
	if o.TraceLen > 0 {
		io.TraceLen = o.TraceLen
	}
	if o.Seed != 0 {
		io.Seed = o.Seed
	}
	if o.Benchmarks != nil {
		io.Benchmarks = o.Benchmarks
	}
	io.MetricsDir = o.MetricsDir
	io.MetricsEpochCycles = o.MetricsEpochCycles
	io.TraceDir = o.TraceDir
	io.Eviction = o.Eviction
	if o.Endpoint != "" {
		if o.TraceDir != "" {
			return io, fmt.Errorf("doram: TraceDir cannot be combined with Endpoint (span traces stay on the server)")
		}
		io.Exec = remoteExec(o.Endpoint)
	}
	return io, nil
}

// Experiments lists the reproducible experiment identifiers: the paper's
// tables and figures in order, then the ablation studies of the design
// choices DESIGN.md calls out.
func Experiments() []string { return experiments.IDs() }

// experimentTable regenerates one experiment's result table.
func experimentTable(id string, opts ExperimentOptions) (*experiments.Table, error) {
	io, err := opts.internal()
	if err != nil {
		return nil, err
	}
	return experiments.Run(id, io)
}

// RunExperiment regenerates one table or figure of the paper's evaluation
// and returns its formatted text. Identifiers are those of Experiments().
func RunExperiment(id string, opts ExperimentOptions) (string, error) {
	t, err := experimentTable(id, opts)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	t.Fprint(&buf)
	return buf.String(), nil
}

// RunExperimentCSV regenerates one experiment and returns its data table
// as CSV (header plus rows, notes omitted) for plotting pipelines.
func RunExperimentCSV(id string, opts ExperimentOptions) (string, error) {
	t, err := experimentTable(id, opts)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := t.Fcsv(&buf); err != nil {
		return "", err
	}
	return buf.String(), nil
}
