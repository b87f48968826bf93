package experiments

import (
	"fmt"

	"doram/internal/core"
	"doram/internal/oram"
	"doram/internal/oram/backend"
	"doram/internal/trace"
)

// EvictionRow is one (benchmark, strategy) cell of the eviction ablation:
// the functional stash behaviour under the benchmark's request stream plus
// the timing simulator's view of the same strategy at full scale.
type EvictionRow struct {
	Bench    string
	Strategy string

	// Functional side (small real-data tree, identical request stream for
	// every strategy of a benchmark).
	StashMean   float64 // mean stash occupancy after each access
	StashMax    int     // stash high-water mark
	BlocksMoved float64 // blocks placed into buckets per access
	ExtraPaths  uint64  // additional eviction paths beyond the accessed one

	// Timing side (full-scale 1S7NS D-ORAM co-run).
	NSExec       float64 // NS execution time normalized to level-by-level
	ORAMAccessNs float64 // S-App mean ORAM access time
}

// EvictionSummary is the full sweep: benchmarks x strategies.
type EvictionSummary struct {
	Rows []EvictionRow
}

// evictionParams is the functional tree the stash study drives. Full scale
// (L=23) would allocate gigabytes; stash behaviour at a fixed utilization
// is essentially height-insensitive (Stefanov et al. §7), so a small tree
// at the same Z and caching depth shows the strategies' relative pressure.
func evictionParams() oram.Params {
	return oram.Params{Levels: 11, Z: 4, BlockSize: 64, TopCacheLevels: 3, StashCapacity: 512}
}

// EvictionAblation compares the registered eviction strategies on the
// Figure 9 workload. Per benchmark it drives one functional client per
// strategy through an identical generated request stream (stash occupancy,
// block movement) and one timing co-run per strategy (NS interference,
// S-App access time). Everything is deterministic in o.Seed: two runs with
// the same options produce byte-identical tables.
//
// level-by-level and greedy-by-depth touch exactly the same tree nodes —
// they differ only in which stash blocks fill the written buckets — so
// their timing rows coincide; deterministic-two-path reads and writes one
// extra reverse-lexicographic path per access, real or dummy, which the
// simulator prices as real channel traffic.
func EvictionAblation(o Options) (*EvictionSummary, *Table, error) {
	strategies := backend.Evictions()

	// Timing runs: one co-run per (bench, strategy).
	res, err := runBenches(o, func(b string) []core.Config {
		cfgs := make([]core.Config, len(strategies))
		for i, s := range strategies {
			cfgs[i] = doramConfig(o, b, 0, core.AllNS)
			cfgs[i].Eviction = s
		}
		return cfgs
	})
	if err != nil {
		return nil, nil, err
	}

	// Normalize NS execution to each benchmark's run under the default
	// strategy (the names are sorted, so find it).
	baseIdx := 0
	for i, s := range strategies {
		if s == backend.DefaultEviction {
			baseIdx = i
		}
	}

	sum := &EvictionSummary{}
	for bi, b := range o.benchmarks() {
		base := res[bi][baseIdx].AvgNSFinish()
		for si, s := range strategies {
			fn, err := evictionFunctional(b, s, o.TraceLen, o.Seed)
			if err != nil {
				return nil, nil, err
			}
			r := res[bi][si]
			fn.NSExec = r.AvgNSFinish() / base
			fn.ORAMAccessNs = r.ORAMAccessNs()
			sum.Rows = append(sum.Rows, fn)
		}
	}

	t := &Table{
		Title: fmt.Sprintf("Eviction-strategy ablation (functional L=%d, timing 1S7NS D-ORAM)",
			evictionParams().Levels),
		Header: []string{"bench", "strategy", "stash mean", "stash max",
			"blk/access", "extra paths", "NS exec (norm)", "ORAM access (ns)"},
	}
	for _, r := range sum.Rows {
		t.AddRow(r.Bench, r.Strategy, f2(r.StashMean), itoa(r.StashMax),
			f2(r.BlocksMoved), fmt.Sprintf("%d", r.ExtraPaths), f3(r.NSExec), f2(r.ORAMAccessNs))
	}
	t.Notes = append(t.Notes,
		"identical per-benchmark request streams; strategies differ only in bucket fill choice",
		"level-by-level and greedy-by-depth touch the same nodes, so their timing rows coincide",
		"deterministic-two-path evicts one extra reverse-lexicographic path per access, real or dummy (priced as real traffic)")
	return sum, t, nil
}

// evictionFunctional drives one functional client with the given strategy
// through the benchmark's generated request stream and reports its stash
// behaviour. The (bench, seed) pair fully determines the stream, so every
// strategy of a benchmark sees identical requests.
func evictionFunctional(bench, strategy string, accesses, seed uint64) (EvictionRow, error) {
	row := EvictionRow{Bench: bench, Strategy: strategy}
	spec, ok := trace.ByName(bench)
	if !ok {
		return row, fmt.Errorf("experiments: unknown benchmark %q", bench)
	}
	evict, err := backend.NewEviction(strategy)
	if err != nil {
		return row, err
	}
	p := evictionParams()
	c, err := oram.NewClientWithOptions(p, oram.ClientOptions{
		Storage:  backend.NewMemStorage(p.NumNodes()),
		Key:      []byte("eviction-study-k"),
		Eviction: evict,
		Seed:     seed,
	})
	if err != nil {
		return row, err
	}

	g := trace.NewGenerator(spec, seed)
	// Map line addresses onto half the logical capacity: ~25% slot
	// utilization, enough reuse for the stash to see steady pressure.
	space := p.MaxBlocks() / 2
	var occSum uint64
	for i := uint64(0); i < accesses; i++ {
		rec, _ := g.Next()
		addr := (rec.Addr / trace.LineBytes) % space
		op, data := oram.OpRead, []byte(nil)
		if rec.Write {
			op, data = oram.OpWrite, []byte{byte(i), byte(i >> 8)}
		}
		if _, _, err := c.Access(op, addr, data); err != nil {
			return row, fmt.Errorf("experiments: eviction %s/%s: %w", bench, strategy, err)
		}
		occSum += uint64(c.StashLen())
	}
	row.StashMean = float64(occSum) / float64(accesses)
	row.StashMax = c.StashMax()
	row.BlocksMoved = float64(c.BlocksEvicted()) / float64(accesses)
	row.ExtraPaths = c.ExtraEvictionPaths()
	return row, nil
}
