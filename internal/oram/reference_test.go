package oram

import (
	"bytes"
	"testing"
	"testing/quick"

	"doram/internal/oram/backend"
	"doram/internal/xrand"
)

// TestClientMatchesReferenceModel drives the functional Path ORAM with
// random operation sequences and checks every read against a plain map —
// the strongest correctness evidence available for a storage protocol.
func TestClientMatchesReferenceModel(t *testing.T) {
	f := func(seed uint64, opsRaw uint16) bool {
		p := smallParams()
		c, err := NewClient(p, backend.NewMemStorage(p.NumNodes()), testKey, false, seed)
		if err != nil {
			t.Log(err)
			return false
		}
		ref := map[uint64][]byte{}
		rng := xrand.New(seed ^ 0xfeed)
		n := p.MaxBlocks() / 2
		ops := int(opsRaw)%400 + 50
		for i := 0; i < ops; i++ {
			addr := rng.Uint64n(n)
			if rng.Bool(0.5) {
				data := make([]byte, 1+rng.Intn(p.BlockSize))
				for j := range data {
					data[j] = byte(rng.Uint64())
				}
				if _, _, err := c.Access(OpWrite, addr, data); err != nil {
					t.Logf("write: %v", err)
					return false
				}
				// The reference stores the zero-padded full block.
				full := make([]byte, p.BlockSize)
				copy(full, data)
				ref[addr] = full
			} else {
				got, _, err := c.Access(OpRead, addr, nil)
				if err != nil {
					t.Logf("read: %v", err)
					return false
				}
				want, ok := ref[addr]
				if !ok {
					want = make([]byte, p.BlockSize)
				}
				if !bytes.Equal(got, want) {
					t.Logf("addr %d: got %x want %x", addr, got[:8], want[:8])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestClientWithAllFeaturesMatchesReference runs the same reference check
// with Merkle integrity, a recursive position map and a low stash-pressure
// threshold (so dummy paths run between real accesses) all at once.
func TestClientWithAllFeaturesMatchesReference(t *testing.T) {
	p := smallParams()
	rm, err := NewRecursiveMap(DefaultRecursiveMapConfig(p.MaxBlocks()))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClientWithMap(p, backend.NewMemStorage(p.NumNodes()), testKey, true, 99, rm)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableMerkle(); err != nil {
		t.Fatal(err)
	}
	c.SetStashPressureRelief(2, 2)

	ref := map[uint64]byte{}
	rng := xrand.New(123)
	n := p.MaxBlocks() / 2
	for i := 0; i < 600; i++ {
		addr := rng.Uint64n(n)
		if rng.Bool(0.5) {
			v := byte(rng.Uint64())
			if _, _, err := c.Access(OpWrite, addr, []byte{v}); err != nil {
				t.Fatalf("step %d write: %v", i, err)
			}
			ref[addr] = v
		} else {
			got, _, err := c.Access(OpRead, addr, nil)
			if err != nil {
				t.Fatalf("step %d read: %v", i, err)
			}
			if got[0] != ref[addr] {
				t.Fatalf("step %d: addr %d = %d, want %d", i, addr, got[0], ref[addr])
			}
		}
	}
	if c.RecoveryStats().PressureEvictions == 0 {
		t.Fatal("stash-pressure relief never ran")
	}
}
