package oram

import (
	"testing"

	"doram/internal/oram/backend"
	"doram/internal/xrand"
)

// TestAccessSteadyStateAllocs guards the functional client's per-access
// allocations on ctr-hmac with MACs, once the tree is full and the stash
// has settled. Seal and Open work in the client's buffers, MemStorage
// stores images in slabs and decoded blocks come off the client's free
// list, so what is left is, per non-cached bucket read, the ReadBucket
// copy the Storage contract requires and the AES-CTR stream (crypto/cipher
// has no reusable CTR); per bucket written, the stream and the evicted
// block list when it has any; per access, the two trace slices and the
// returned data: 33 allocations at this config.
func TestAccessSteadyStateAllocs(t *testing.T) {
	const maxAllocs = 33
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
