package backend

import (
	"encoding/binary"
	"fmt"
)

// slotHeader is the per-slot metadata: valid flag, address, leaf.
const slotHeader = 1 + 8 + 8

// BucketBytes returns the plaintext size of one serialized bucket.
func BucketBytes(z, blockSize int) int { return z * (slotHeader + blockSize) }

// EncodeBucket serializes up to z blocks into a new bucket image; empty
// slots are zeroed (and indistinguishable after encryption).
func EncodeBucket(blocks []*Block, z, blockSize int) []byte {
	buf := make([]byte, BucketBytes(z, blockSize))
	EncodeBucketInto(buf, blocks, z, blockSize)
	return buf
}

// EncodeBucketInto is EncodeBucket into a caller-owned image of exactly
// BucketBytes(z, blockSize) bytes, which it zeroes first, so one buffer
// can carry every write-back.
func EncodeBucketInto(buf []byte, blocks []*Block, z, blockSize int) {
	if len(buf) != BucketBytes(z, blockSize) {
		panic(fmt.Sprintf("oram: bucket image is %d bytes, want %d", len(buf), BucketBytes(z, blockSize)))
	}
	clear(buf)
	for i, b := range blocks {
		if i >= z {
			panic(fmt.Sprintf("oram: %d blocks exceed bucket capacity %d", len(blocks), z))
		}
		off := i * (slotHeader + blockSize)
		buf[off] = 1
		binary.LittleEndian.PutUint64(buf[off+1:], b.Addr)
		binary.LittleEndian.PutUint64(buf[off+9:], b.Leaf)
		copy(buf[off+slotHeader:off+slotHeader+blockSize], b.Data)
	}
}

// FreeBlocks is a free list of blocks, each with its data buffer, that
// DecodeBucket refills in place instead of allocating.
type FreeBlocks []*Block

// take pops a block off f, or allocates one when f is nil or empty.
func (f *FreeBlocks) take() *Block {
	if f == nil || len(*f) == 0 {
		return &Block{}
	}
	last := len(*f) - 1
	b := (*f)[last]
	(*f)[last] = nil
	*f = (*f)[:last]
	return b
}

// DecodeBucket appends a bucket image's valid blocks to dst and returns
// the extended slice. Each block comes from free while it holds one, its
// data copied into the block's own buffer, and is allocated otherwise; a
// nil free always allocates. A truncated image (possible only when
// integrity checking is disabled and storage is hostile) yields the slots
// that fit rather than panicking.
func DecodeBucket(dst []*Block, buf []byte, z, blockSize int, free *FreeBlocks) []*Block {
	for i := 0; i < z; i++ {
		off := i * (slotHeader + blockSize)
		if off+slotHeader+blockSize > len(buf) {
			break
		}
		if buf[off] == 0 {
			continue
		}
		b := free.take()
		b.Addr = binary.LittleEndian.Uint64(buf[off+1:])
		b.Leaf = binary.LittleEndian.Uint64(buf[off+9:])
		b.Data = append(b.Data[:0], buf[off+slotHeader:off+slotHeader+blockSize]...)
		dst = append(dst, b)
	}
	return dst
}

// DecodeBucketCT is the read-every-slot variant of DecodeBucket for the
// constant-time client mode: it reads and materializes all z slots with
// the same instruction sequence before discarding invalid ones, so block
// *contents* never influence which bytes are touched. (Slot validity and
// addresses are functions of the access sequence, not of stored data; the
// constant-time mode's guarantee is that secret data values stay off the
// instruction stream — see consttime.go.) The image must be exactly
// BucketBytes(z, blockSize) long; the plain variant's truncation tolerance
// exists only for integrity-off chaos runs, which this mode rejects.
func DecodeBucketCT(buf []byte, z, blockSize int) []*Block {
	if len(buf) != BucketBytes(z, blockSize) {
		panic(fmt.Sprintf("oram: constant-time decode needs a full %d-byte image, got %d",
			BucketBytes(z, blockSize), len(buf)))
	}
	blocks := make([]Block, z)
	valid := make([]uint64, z)
	for i := 0; i < z; i++ {
		off := i * (slotHeader + blockSize)
		valid[i] = CTEqByte(buf[off], 1)
		blocks[i] = Block{
			Addr: binary.LittleEndian.Uint64(buf[off+1:]),
			Leaf: binary.LittleEndian.Uint64(buf[off+9:]),
			Data: append([]byte(nil), buf[off+slotHeader:off+slotHeader+blockSize]...),
		}
	}
	var out []*Block
	for i := 0; i < z; i++ {
		if valid[i] == 1 {
			out = append(out, &blocks[i])
		}
	}
	return out
}
