package backend

import (
	"fmt"
	"math"
)

// Storage is the untrusted memory holding encrypted buckets.
type Storage interface {
	// ReadBucket returns the stored image for node (nil if never written).
	// The returned slice is the caller's to modify, and it stays valid
	// until the next ReadBucket on the same store, which may reuse it.
	// Implementations must not alias it to a stored image, so that a
	// caller mutating the buffer cannot corrupt stored ciphertext.
	ReadBucket(node NodeID) []byte
	// WriteBucket replaces the stored image for node. Implementations copy
	// buf; the caller may reuse it afterwards.
	WriteBucket(node NodeID, buf []byte)
}

// slabImages is how many bucket images one MemStorage slab holds.
const slabImages = 256

// MemStorage is an in-memory Storage for functional instances and tests.
// It packs the images into slabs of slabImages each, in the order their
// nodes are first written, so the garbage collector traces one object per
// slab rather than one per bucket, and memory grows with the buckets
// written. Every image in one MemStorage has the same size, fixed by the
// first write (a client writes SealedBytes(BucketBytes(Z, B)) bytes per
// bucket); WriteBucket panics on an image of any other size.
type MemStorage struct {
	slot  []int32  // node -> 1 + index of its image; 0 = never written
	slabs [][]byte // slabImages images each, in first-write order
	used  int32    // images stored
	size  int      // bytes per image, fixed by the first write
	read  []byte   // ReadBucket's result, refilled by every read
}

// NewMemStorage allocates storage for n nodes.
func NewMemStorage(n uint64) *MemStorage {
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("oram: MemStorage holds at most %d nodes, asked for %d", math.MaxInt32, n))
	}
	return &MemStorage{slot: make([]int32, n)}
}

// image returns the stored image with 1-based index i.
func (m *MemStorage) image(i int32) []byte {
	i--
	off := int(i%slabImages) * m.size
	return m.slabs[i/slabImages][off : off+m.size : off+m.size]
}

// ReadBucket implements Storage. It copies the image into one read
// buffer that the store owns and returns that, never the stored image.
func (m *MemStorage) ReadBucket(node NodeID) []byte {
	i := m.slot[node]
	if i == 0 {
		return nil
	}
	m.read = append(m.read[:0], m.image(i)...)
	return m.read
}

// WriteBucket implements Storage. It copies buf into the node's image,
// which ReadBucket never hands out; a node's first write takes the next
// free image, opening a new slab when the last one is full.
func (m *MemStorage) WriteBucket(node NodeID, buf []byte) {
	if m.used == 0 {
		m.size = len(buf)
	} else if len(buf) != m.size {
		panic(fmt.Sprintf("oram: MemStorage holds %d-byte images, node %d written with %d bytes",
			m.size, node, len(buf)))
	}
	i := m.slot[node]
	if i == 0 {
		if m.used%slabImages == 0 {
			m.slabs = append(m.slabs, make([]byte, slabImages*m.size))
		}
		m.used++
		i = m.used
		m.slot[node] = i
	}
	copy(m.image(i), buf)
}
