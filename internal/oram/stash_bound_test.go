package oram

import (
	"math"
	"testing"

	"doram/internal/oram/backend"
	"doram/internal/xrand"
)

// stashTail runs the functional client at Stefanov et al.'s setting, N =
// 2^L blocks over a tree of L = 12 with Z = z, under the default eviction
// and with no top cache, no crypto and no pressure relief. After writing
// every block once and a warm-up of random accesses, it makes n uniformly
// random accesses and returns, for each R, how many of them left more
// than R blocks in the stash after the write-back, and the largest
// occupancy seen.
func stashTail(t *testing.T, z, n int) (exceed []int, peak int) {
	t.Helper()
	p := Params{Levels: 12, Z: z, BlockSize: 16, TopCacheLevels: 0, StashCapacity: 1 << 12}
	blocks := p.NumLeaves()
	c, err := NewClientWithOptions(p, ClientOptions{
		Storage: backend.NewMemStorage(p.NumNodes()), Encryptor: backend.NewNoOpEncryptor(), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	c.SetStashPressureRelief(0, 0)
	access := func(addr uint64) int {
		if _, _, err := c.Access(OpRead, addr, nil); err != nil {
			t.Fatal(err)
		}
		return c.StashLen()
	}
	for addr := uint64(0); addr < blocks; addr++ {
		access(addr)
	}
	rng := xrand.New(13)
	for i := 0; i < 10_000; i++ {
		access(rng.Uint64n(blocks))
	}
	hist := make([]int, p.StashCapacity+1)
	for i := 0; i < n; i++ {
		s := access(rng.Uint64n(blocks))
		hist[s]++
		peak = max(peak, s)
	}
	exceed = make([]int, peak+1)
	for r := peak - 1; r >= 0; r-- {
		exceed[r] = exceed[r+1] + hist[r+1]
	}
	return exceed, peak
}

// TestStashTailWithinPathORAMBound checks the functional client against
// Stefanov et al.'s main theorem: with Z = 5 the stash holds more than R
// blocks after a write-back with probability at most 14·0.6002^R. The
// measured tail must stay under the bound at every R where the bound
// allows at least 10 exceedances among the samples, which keeps a
// correct client from failing by chance. At the paper's Z = 4, which the
// theorem does not cover, the largest occupancy must fit PaperParams'
// StashCapacity.
func TestStashTailWithinPathORAMBound(t *testing.T) {
	const n = 100_000
	bound := func(r int) float64 { return 14 * math.Pow(0.6002, float64(r)) }
	exceed, peak := stashTail(t, 5, n)
	t.Logf("Z=5: max stash %d over %d accesses; tail %v", peak, n, exceed)
	for r := 0; bound(r)*n >= 10; r++ {
		got := 0
		if r < len(exceed) {
			got = exceed[r]
		}
		if p := float64(got) / n; p > bound(r) {
			t.Errorf("Z=5: P(stash > %d) = %.3g, above the bound 14·0.6002^%d = %.3g", r, p, r, bound(r))
		}
	}

	exceed, peak = stashTail(t, 4, n)
	t.Logf("Z=4: max stash %d over %d accesses; tail %v", peak, n, exceed)
	if capacity := PaperParams().StashCapacity; peak > capacity {
		t.Errorf("Z=4: stash reached %d blocks, above the paper's capacity %d", peak, capacity)
	}
}
