package backend

import (
	"bytes"
	"strings"
	"testing"
)

// imageFor is node's test content in a size-byte image, distinct per node.
func imageFor(node NodeID, size int) []byte {
	img := make([]byte, size)
	for i := range img {
		img[i] = byte(uint64(node)*31 + uint64(i))
	}
	return img
}

// TestMemStorageAcrossSlabs writes more than two slabs' worth of nodes in
// scattered order and reads every one back, with the untouched nodes
// still reading as nil.
func TestMemStorageAcrossSlabs(t *testing.T) {
	const n, size = 4 * slabImages, 40
	written := 2*slabImages + 10
	m := NewMemStorage(n)
	for i := 0; i < written; i++ {
		node := NodeID(i * 7 % n) // 7 is coprime to n: distinct nodes
		m.WriteBucket(node, imageFor(node, size))
	}
	if got, want := len(m.slabs), 3; got != want {
		t.Fatalf("%d images fill %d slabs, want %d", written, got, want)
	}
	for i := 0; i < n; i++ {
		node := NodeID(i * 7 % n)
		got := m.ReadBucket(node)
		if i >= written {
			if got != nil {
				t.Fatalf("never-written node %d reads %d bytes, want nil", node, len(got))
			}
			continue
		}
		if !bytes.Equal(got, imageFor(node, size)) {
			t.Fatalf("node %d (write %d) reads back the wrong image", node, i)
		}
	}
}

// TestMemStorageOverwriteInPlace rewrites one node: the new image replaces
// the old one in its slot, taking no new one.
func TestMemStorageOverwriteInPlace(t *testing.T) {
	m := NewMemStorage(8)
	m.WriteBucket(5, bytes.Repeat([]byte{1}, 16))
	slot := &m.image(m.slot[5])[0]
	m.WriteBucket(5, bytes.Repeat([]byte{2}, 16))
	if got := m.ReadBucket(5); !bytes.Equal(got, bytes.Repeat([]byte{2}, 16)) {
		t.Fatalf("overwritten node reads %v", got)
	}
	if m.used != 1 || &m.image(m.slot[5])[0] != slot {
		t.Fatalf("overwrite moved the image: %d images stored", m.used)
	}
	if m.ReadBucket(4) != nil || m.ReadBucket(6) != nil {
		t.Fatal("overwrite leaked into a neighbouring node")
	}
}

// TestMemStorageSizeMismatchPanics checks that the first write fixes the
// image size for every node.
func TestMemStorageSizeMismatchPanics(t *testing.T) {
	m := NewMemStorage(8)
	m.WriteBucket(1, make([]byte, 32))
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "32-byte images") || !strings.Contains(msg, "33 bytes") {
			t.Fatalf("size mismatch panicked with %q", msg)
		}
	}()
	m.WriteBucket(2, make([]byte, 33))
}

// TestMemStorageHeapObjects guards the point of the slabs: storing 1,024
// fresh buckets allocates per slab, not per bucket. The bound allows the
// store itself, its index and the growth of its slab list.
func TestMemStorageHeapObjects(t *testing.T) {
	const n, size = 1024, 356
	img := make([]byte, size)
	slabs := (n + slabImages - 1) / slabImages
	got := testing.AllocsPerRun(5, func() {
		m := NewMemStorage(n)
		for node := NodeID(0); node < n; node++ {
			m.WriteBucket(node, img)
		}
	})
	if got > float64(slabs+8) {
		t.Errorf("writing %d fresh buckets took %.0f allocations, want at most %d", n, got, slabs+8)
	}
}

// TestMemStorageReadBucketAllocs checks that a read reuses the store's
// read buffer: once the first read has sized it, ReadBucket allocates
// nothing, and what it returns holds the image.
func TestMemStorageReadBucketAllocs(t *testing.T) {
	const n, size = 64, 352
	m := NewMemStorage(n)
	for node := NodeID(0); node < n; node++ {
		m.WriteBucket(node, imageFor(node, size))
	}
	node := NodeID(0)
	var got []byte
	if allocs := testing.AllocsPerRun(100, func() {
		node = (node + 1) % n
		got = m.ReadBucket(node)
	}); allocs != 0 {
		t.Errorf("ReadBucket made %.1f allocations per call, want 0", allocs)
	}
	if !bytes.Equal(got, imageFor(node, size)) {
		t.Fatalf("node %d reads back the wrong image", node)
	}
}
