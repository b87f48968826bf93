package metrics

// Timeline is the epoch-sampled record of every registered gauge: one
// column per series (registration order) and one row per sample. It is
// the substrate for the paper's time-series claims — bus utilization,
// queue occupancy and stash depth over time rather than end-of-run
// scalars.
type Timeline struct {
	// EpochCycles is the nominal sampling period in CPU cycles. The final
	// epoch of a run is usually shorter (the run ends mid-epoch); its
	// sample still closes the integral exactly because interval gauges
	// report deltas since the previous sample.
	EpochCycles uint64 `json:"epoch_cycles"`
	// Series names each column of Epochs[i].Values.
	Series []string `json:"series"`
	// Epochs are the samples in strictly increasing cycle order.
	Epochs []Epoch `json:"epochs"`
}

// Epoch is one timeline sample.
type Epoch struct {
	// Cycle is the CPU cycle the sample was taken at.
	Cycle uint64 `json:"cycle"`
	// Values holds one reading per Timeline.Series entry.
	Values []float64 `json:"values"`
}

// Value returns the epoch's reading for series column i.
func (e Epoch) Value(i int) float64 { return e.Values[i] }

// StartTimeline arms epoch sampling with the given period. Gauges
// registered after the call are still sampled (the column set is fixed at
// the first Sample). It is a no-op on a nil registry.
func (r *Registry) StartTimeline(epochCycles uint64) {
	if r == nil || epochCycles == 0 {
		return
	}
	r.timeline = &Timeline{EpochCycles: epochCycles}
}

// Sample records one timeline epoch at CPU cycle now, reading every
// registered gauge once in registration order. Samples at a cycle not
// after the previous one are dropped, keeping Epochs strictly increasing
// (the final flush of a run can land on a periodic sample's cycle).
func (r *Registry) Sample(now uint64) {
	if r == nil || r.timeline == nil {
		return
	}
	tl := r.timeline
	if n := len(tl.Epochs); n > 0 && tl.Epochs[n-1].Cycle >= now {
		return
	}
	if tl.Series == nil {
		tl.Series = r.SeriesNames()
	}
	vals := make([]float64, len(r.gauges))
	for i, g := range r.gauges {
		vals[i] = g.fn(now)
	}
	tl.Epochs = append(tl.Epochs, Epoch{Cycle: now, Values: vals})
}

// Timeline returns the recorded timeline (nil when disabled or never
// started).
func (r *Registry) Timeline() *Timeline {
	if r == nil {
		return nil
	}
	return r.timeline
}

// SeriesIndex returns the column index of the named series, or -1.
func (t *Timeline) SeriesIndex(name string) int {
	if t == nil {
		return -1
	}
	for i, s := range t.Series {
		if s == name {
			return i
		}
	}
	return -1
}

// Integrate sums series column i weighted by each epoch's advance of the
// weight column w: sum_e values[e][i] * (w[e] - w[e-1]), with w[-1] = 0.
// With i an interval-utilization gauge and w the matching cumulative
// denominator, this reconstructs the cumulative busy total — the
// cross-check tying the timeline back to the scalar aggregates.
func (t *Timeline) Integrate(i, w int) float64 {
	if t == nil {
		return 0
	}
	var sum, lastW float64
	for _, e := range t.Epochs {
		sum += e.Values[i] * (e.Values[w] - lastW)
		lastW = e.Values[w]
	}
	return sum
}
