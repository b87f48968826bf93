package oram

import (
	"bytes"
	"fmt"
	"testing"

	"doram/internal/oram/backend"
	"doram/internal/xrand"
)

// TestRecycledBlocksNeverAlias is the oracle for the client's free list of
// decoded blocks. A seeded stream runs under every eviction strategy, with
// Merkle on and off and with both serve paths. After every access, each
// *Block the client holds sits in exactly one place among the stash, the
// top cache and the free list, no two of them share a data array, every
// read returns the last value written, and in constant-time mode the free
// list stays empty.
func TestRecycledBlocksNeverAlias(t *testing.T) {
	const accesses, addrs = 2000, 300
	p := Params{Levels: 7, Z: 4, BlockSize: 16, TopCacheLevels: 2, StashCapacity: 200}
	for _, evict := range backend.Evictions() {
		for _, merkle := range []bool{false, true} {
			for _, ct := range []bool{false, true} {
				name := fmt.Sprintf("%s/merkle=%v/ct=%v", evict, merkle, ct)
				t.Run(name, func(t *testing.T) {
					strategy, err := backend.NewEviction(evict)
					if err != nil {
						t.Fatal(err)
					}
					c, err := NewClientWithOptions(p, ClientOptions{
						Storage: backend.NewMemStorage(p.NumNodes()), Key: testKey, WithMAC: true,
						Eviction: strategy, ConstantTime: ct, Seed: 5})
					if err != nil {
						t.Fatal(err)
					}
					if merkle {
						if err := c.EnableMerkle(); err != nil {
							t.Fatal(err)
						}
					}
					rng := xrand.New(17)
					shadow := map[uint64][]byte{}
					for i := 0; i < accesses; i++ {
						addr := rng.Uint64n(addrs)
						if rng.Intn(2) == 0 {
							data := make([]byte, p.BlockSize)
							for j := range data {
								data[j] = byte(rng.Uint64())
							}
							if _, _, err := c.Access(OpWrite, addr, data); err != nil {
								t.Fatalf("access %d: %v", i, err)
							}
							shadow[addr] = data
						} else {
							got, _, err := c.Access(OpRead, addr, nil)
							if err != nil {
								t.Fatalf("access %d: %v", i, err)
							}
							want, ok := shadow[addr]
							if !ok {
								want = make([]byte, p.BlockSize)
							}
							if !bytes.Equal(got, want) {
								t.Fatalf("access %d: read %d returned %x, want %x", i, addr, got, want)
							}
						}
						if err := checkBlockOwnership(c, addrs); err != nil {
							t.Fatalf("after access %d: %v", i, err)
						}
					}
				})
			}
		}
	}
}

// checkBlockOwnership reports a block held in two places, or two blocks
// sharing a data array, among c's stash (addresses below addrs), top cache
// and free list.
func checkBlockOwnership(c *Client, addrs uint64) error {
	if c.ct && len(c.free) != 0 {
		return fmt.Errorf("constant-time client holds %d free blocks", len(c.free))
	}
	where := map[*backend.Block]string{}
	data := map[*byte]string{}
	hold := func(b *backend.Block, place string) error {
		if prev, ok := where[b]; ok {
			return fmt.Errorf("block %p (addr %d) is in %s and in %s", b, b.Addr, prev, place)
		}
		where[b] = place
		if len(b.Data) == 0 {
			return fmt.Errorf("block %p (addr %d) in %s has no data", b, b.Addr, place)
		}
		if prev, ok := data[&b.Data[0]]; ok {
			return fmt.Errorf("block %p (addr %d) in %s shares its data with a block in %s", b, b.Addr, place, prev)
		}
		data[&b.Data[0]] = place
		return nil
	}
	for addr := uint64(0); addr < addrs; addr++ {
		if b := c.stash.Get(addr); b != nil {
			if err := hold(b, "the stash"); err != nil {
				return err
			}
		}
	}
	for node, bucket := range c.top {
		for _, b := range bucket {
			if err := hold(b, fmt.Sprintf("top-cache node %d", node)); err != nil {
				return err
			}
		}
	}
	for _, b := range c.free {
		if err := hold(b, "the free list"); err != nil {
			return err
		}
	}
	return nil
}
