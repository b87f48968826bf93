package backend

// Branch-free select primitives for the client's constant-time mode
// (ORAMConfig.ConstantTime): a TEE-style deployment where the adversary
// observes the controller's own instruction and data-access stream, not
// just the untrusted memory. The tree addresses an access touches are
// public by construction (Path ORAM's whole guarantee), but a naive stash
// lookup or bucket scan branches on which slot matched — leaking where a
// block sits through timing. These helpers follow crypto/subtle's style:
// every byte is touched, the match is folded into a mask, and copies are
// mask-selected, so the instruction stream is identical whichever (if
// any) slot matches.

// CTEq64 returns 1 if a == b and 0 otherwise, without branching.
func CTEq64(a, b uint64) uint64 {
	x := a ^ b
	// Fold "any bit set" into bit 63, then shift it down and invert.
	return 1 ^ ((x | -x) >> 63)
}

// CTEqByte returns 1 if a == b and 0 otherwise, without branching.
func CTEqByte(a, b byte) uint64 { return CTEq64(uint64(a), uint64(b)) }

// CTSelect64 returns x if choice is 1 and y if choice is 0. choice must
// be exactly 0 or 1.
func CTSelect64(choice, x, y uint64) uint64 {
	mask := -choice // 0 -> 0x000..0, 1 -> 0xfff..f
	return (x & mask) | (y &^ mask)
}

// CTCopy copies src into dst when choice is 1 and leaves dst unchanged
// when choice is 0, touching every byte of both either way. The slices
// must have equal length; choice must be exactly 0 or 1.
func CTCopy(choice uint64, dst, src []byte) {
	if len(dst) != len(src) {
		panic("oram: constant-time copy length mismatch")
	}
	mask := byte(-choice)
	for i := range dst {
		dst[i] = (src[i] & mask) | (dst[i] &^ mask)
	}
}

// CTScanStash serves a request from the stash without data-dependent
// branches: it walks every stashed block in canonical (address) order,
// compares addresses branch-free, and mask-copies the matching block's
// data into out. It returns 1 if some block matched (out then holds its
// data) and the number of slots scanned — which depends only on the stash
// occupancy, never on which slot (if any) matched.
func CTScanStash(s *Stash, addr uint64, out []byte) (found uint64, scanned int) {
	for _, b := range s.blocks {
		hit := CTEq64(b.Addr, addr)
		CTCopy(hit, out, b.Data)
		found |= hit
		scanned++
	}
	return found, scanned
}

// CTStoreStash writes data into the stashed block for addr without
// data-dependent branches, scanning every block like CTScanStash. It
// returns 1 if a block matched. data must be exactly block-sized.
func CTStoreStash(s *Stash, addr uint64, data []byte) (found uint64, scanned int) {
	for _, b := range s.blocks {
		hit := CTEq64(b.Addr, addr)
		CTCopy(hit, b.Data, data)
		found |= hit
		scanned++
	}
	return found, scanned
}
