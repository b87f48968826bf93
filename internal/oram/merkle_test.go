package oram

import (
	"bytes"
	"testing"

	"doram/internal/oram/backend"
	"doram/internal/xrand"
)

func merkleParams() Params {
	return Params{Levels: 5, Z: 4, BlockSize: 64, TopCacheLevels: 0, StashCapacity: 300}
}

func TestMerkleEmptyTreeVerifies(t *testing.T) {
	p := merkleParams()
	m := NewMerkle(p)
	cts := make([][]byte, p.Levels+1)
	for leaf := uint64(0); leaf < p.NumLeaves(); leaf++ {
		if err := m.VerifyPath(leaf, cts); err != nil {
			t.Fatalf("leaf %d: empty tree failed verification: %v", leaf, err)
		}
	}
}

func TestMerkleUpdateThenVerify(t *testing.T) {
	p := merkleParams()
	m := NewMerkle(p)
	cts := make([][]byte, p.Levels+1)
	for i := range cts {
		cts[i] = []byte{byte(i), 0xaa}
	}
	if err := m.UpdatePath(3, cts); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyPath(3, cts); err != nil {
		t.Fatalf("freshly written path failed: %v", err)
	}
	// A far-away path shares only the root with the written one; it must
	// verify when presenting the written root ciphertext plus its own
	// (still empty) lower buckets.
	other := make([][]byte, p.Levels+1)
	other[0] = cts[0]
	if err := m.VerifyPath(p.NumLeaves()-1, other); err != nil {
		t.Fatalf("sibling path failed after unrelated update: %v", err)
	}
}

func TestMerkleDetectsBucketTamper(t *testing.T) {
	p := merkleParams()
	m := NewMerkle(p)
	cts := make([][]byte, p.Levels+1)
	for i := range cts {
		cts[i] = []byte{byte(i + 1)}
	}
	m.UpdatePath(5, cts)
	bad := make([][]byte, len(cts))
	copy(bad, cts)
	bad[2] = []byte{0xff}
	if err := m.VerifyPath(5, bad); err != ErrMerkle {
		t.Fatalf("tampered bucket: err = %v, want ErrMerkle", err)
	}
}

func TestMerkleDetectsSiblingHashTamper(t *testing.T) {
	p := merkleParams()
	m := NewMerkle(p)
	cts := make([][]byte, p.Levels+1)
	m.UpdatePath(0, cts)
	// Corrupt an untrusted stored hash off the verified path: the next
	// verification that consumes it as a sibling must fail.
	sibling := backend.NodeAt(1, p.NumLeaves()-1, p.Levels) // right child of root
	m.Hashes()[sibling][0] ^= 0x80
	if err := m.VerifyPath(0, cts); err != ErrMerkle {
		t.Fatalf("tampered sibling hash: err = %v, want ErrMerkle", err)
	}
}

func TestMerkleDetectsReplay(t *testing.T) {
	p := merkleParams()
	m := NewMerkle(p)
	old := make([][]byte, p.Levels+1)
	for i := range old {
		old[i] = []byte{1, byte(i)}
	}
	m.UpdatePath(2, old)
	newer := make([][]byte, p.Levels+1)
	for i := range newer {
		newer[i] = []byte{2, byte(i)}
	}
	m.UpdatePath(2, newer)
	// Replaying the stale path must fail against the advanced root.
	if err := m.VerifyPath(2, old); err != ErrMerkle {
		t.Fatalf("replayed stale path: err = %v, want ErrMerkle", err)
	}
	if err := m.VerifyPath(2, newer); err != nil {
		t.Fatalf("current path rejected: %v", err)
	}
}

func TestMerkleWrongLengthRejected(t *testing.T) {
	m := NewMerkle(merkleParams())
	if err := m.VerifyPath(0, make([][]byte, 2)); err == nil {
		t.Fatal("short path accepted")
	}
	if err := m.UpdatePath(0, make([][]byte, 2)); err == nil {
		t.Fatal("short update accepted")
	}
}

func TestClientWithMerkleEndToEnd(t *testing.T) {
	p := smallParams()
	store := backend.NewMemStorage(p.NumNodes())
	c, err := NewClient(p, store, testKey, false, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableMerkle(); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(2)
	for i := 0; i < 200; i++ {
		addr := rng.Uint64n(60)
		if rng.Bool(0.5) {
			if _, _, err := c.Access(OpWrite, addr, []byte{byte(i)}); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		} else if _, _, err := c.Access(OpRead, addr, nil); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	// Corrupt every bucket of the topmost stored level: every path
	// crosses one of them, so the very next access must fail. (An
	// off-path corruption is only caught when its path is next read —
	// the lazy detection inherent to path-granular Merkle checking.)
	first := uint64(1)<<uint(p.TopCacheLevels) - 1
	count := uint64(1) << uint(p.TopCacheLevels)
	forged := bytes.Repeat([]byte{0xff}, c.enc.SealedBytes(backend.BucketBytes(p.Z, p.BlockSize)))
	for off := uint64(0); off < count; off++ {
		node := backend.NodeID(first + off)
		if buf := store.ReadBucket(node); buf != nil {
			buf[0] ^= 0xff
			store.WriteBucket(node, buf)
		} else {
			store.WriteBucket(node, forged) // forged bucket from thin air
		}
	}
	if _, _, err := c.Access(OpRead, 0, nil); err == nil {
		t.Fatal("Merkle-protected client accepted a corrupted tree")
	}
}

func TestEnableMerkleAfterAccessRejected(t *testing.T) {
	c := newTestClient(t, smallParams(), false)
	c.Access(OpWrite, 1, []byte("x"))
	if err := c.EnableMerkle(); err == nil {
		t.Fatal("EnableMerkle after first access accepted")
	}
}
