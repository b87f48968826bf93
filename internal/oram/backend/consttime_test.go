package backend

import (
	"bytes"
	"testing"
)

func TestCTEq64(t *testing.T) {
	cases := []struct {
		a, b uint64
		want uint64
	}{
		{0, 0, 1}, {1, 1, 1}, {^uint64(0), ^uint64(0), 1},
		{0, 1, 0}, {1, 0, 0}, {^uint64(0), 0, 0},
		{1 << 63, 0, 0}, {1 << 63, 1 << 63, 1}, {42, 43, 0},
	}
	for _, c := range cases {
		if got := CTEq64(c.a, c.b); got != c.want {
			t.Errorf("CTEq64(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCTSelect64(t *testing.T) {
	if got := CTSelect64(1, 11, 22); got != 11 {
		t.Errorf("choice 1: got %d", got)
	}
	if got := CTSelect64(0, 11, 22); got != 22 {
		t.Errorf("choice 0: got %d", got)
	}
}

func TestCTCopy(t *testing.T) {
	src := []byte{1, 2, 3, 4}
	dst := []byte{9, 9, 9, 9}
	CTCopy(0, dst, src)
	if !bytes.Equal(dst, []byte{9, 9, 9, 9}) {
		t.Fatalf("choice 0 modified dst: %v", dst)
	}
	CTCopy(1, dst, src)
	if !bytes.Equal(dst, src) {
		t.Fatalf("choice 1 did not copy: %v", dst)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	CTCopy(1, dst, []byte{1})
}

func TestCTScanStash(t *testing.T) {
	s := NewStash(16)
	for _, addr := range []uint64{5, 1, 9} {
		if err := s.Put(&Block{Addr: addr, Data: []byte{byte(addr), 0xee}}); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]byte, 2)
	found, scanned := CTScanStash(s, 9, out)
	if found != 1 || scanned != 3 {
		t.Fatalf("found=%d scanned=%d, want 1, 3", found, scanned)
	}
	if !bytes.Equal(out, []byte{9, 0xee}) {
		t.Fatalf("out = %v", out)
	}
	// A miss scans the same number of slots and leaves out untouched.
	out = []byte{0xaa, 0xbb}
	found, scanned = CTScanStash(s, 7, out)
	if found != 0 || scanned != 3 {
		t.Fatalf("miss: found=%d scanned=%d, want 0, 3", found, scanned)
	}
	if !bytes.Equal(out, []byte{0xaa, 0xbb}) {
		t.Fatalf("miss clobbered out: %v", out)
	}

	if found, _ := CTStoreStash(s, 5, []byte{0x55, 0x66}); found != 1 {
		t.Fatal("store missed existing block")
	}
	if got := s.Get(5); !bytes.Equal(got.Data, []byte{0x55, 0x66}) {
		t.Fatalf("stored data = %v", got.Data)
	}
}

// TestDecodeBucketCT asserts the branch-free decoder recovers exactly the
// blocks the branchy one does, across empty, partial, and full buckets.
func TestDecodeBucketCT(t *testing.T) {
	const z, blockSize = 4, 16
	for occupancy := 0; occupancy <= z; occupancy++ {
		var blocks []*Block
		for i := 0; i < occupancy; i++ {
			d := make([]byte, blockSize)
			d[0] = byte(0x10 + i)
			blocks = append(blocks, &Block{Addr: uint64(100 + i), Leaf: uint64(i), Data: d})
		}
		buf := EncodeBucket(blocks, z, blockSize)
		want := DecodeBucket(nil, buf, z, blockSize, nil)
		got := DecodeBucketCT(buf, z, blockSize)
		if len(got) != len(want) {
			t.Fatalf("occupancy %d: %d blocks, want %d", occupancy, len(got), len(want))
		}
		for i := range want {
			if got[i].Addr != want[i].Addr || got[i].Leaf != want[i].Leaf ||
				!bytes.Equal(got[i].Data, want[i].Data) {
				t.Fatalf("occupancy %d block %d: got %+v, want %+v", occupancy, i, got[i], want[i])
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("truncated image did not panic")
		}
	}()
	DecodeBucketCT(make([]byte, 3), z, blockSize)
}
