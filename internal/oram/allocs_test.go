package oram

import (
	"testing"

	"doram/internal/oram/backend"
	"doram/internal/xrand"
)

// TestAccessSteadyStateAllocs guards the functional client's per-access
// allocations on ctr-hmac with MACs, once the tree is full and the stash
// has settled. Seal and Open work in the client's buffers, MemStorage
// reads into a buffer it owns and stores images in slabs, decoded blocks
// come off the client's free list and the eviction plan fills the
// strategy's scratch slice, so what is left is the AES-CTR stream of each
// non-cached bucket read or written (crypto/cipher has no reusable CTR;
// 8 levels each way here) and, per access, the two trace slices and the
// returned data: 19 allocations at this config.
func TestAccessSteadyStateAllocs(t *testing.T) {
	const maxAllocs = 19
	p := Params{Levels: 10, Z: 4, BlockSize: 64, TopCacheLevels: 3, StashCapacity: 200}
	c, err := NewClient(p, backend.NewMemStorage(p.NumNodes()), testKey, true, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(7)
	data := make([]byte, p.BlockSize)
	access := func() {
		addr := rng.Uint64n(p.MaxBlocks() / 2)
		op := OpRead
		if rng.Intn(2) == 0 {
			op = OpWrite
		}
		if _, _, err := c.Access(op, addr, data); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4000; i++ {
		access()
	}
	if got := testing.AllocsPerRun(500, access); got > maxAllocs {
		t.Errorf("%.1f allocations per access, want at most %d", got, maxAllocs)
	}
}
