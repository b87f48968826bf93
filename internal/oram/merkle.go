package oram

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"doram/internal/oram/backend"
)

// ErrMerkle is returned when a path fails Merkle verification.
var ErrMerkle = errors.New("oram: merkle path verification failed")

// Merkle authenticates the ORAM tree with a hash tree whose per-node
// hashes live in untrusted memory and whose root lives in the trusted
// controller: node hash = H(node id, bucket ciphertext, left hash, right
// hash). Because Path ORAM reads and writes whole root-to-leaf paths, a
// path's hashes can be verified and updated with only the path's sibling
// hashes — no extra tree walks (Suh et al. [36]; the SD-sized alternative
// to keeping a trusted version counter per node).
type Merkle struct {
	p      Params
	hashes [][32]byte // untrusted: indexed by NodeID
	root   [32]byte   // trusted
}

// NewMerkle builds the hash tree for an all-empty ORAM of the given
// geometry.
func NewMerkle(p Params) *Merkle {
	m := &Merkle{p: p, hashes: make([][32]byte, p.NumNodes())}
	// Initialize bottom-up so the empty tree verifies.
	for level := p.Levels; level >= 0; level-- {
		first := uint64(1)<<uint(level) - 1
		count := uint64(1) << uint(level)
		for off := uint64(0); off < count; off++ {
			node := backend.NodeID(first + off)
			m.hashes[node] = m.nodeHash(node, nil)
		}
	}
	m.root = m.hashes[0]
	return m
}

// Hashes exposes the untrusted hash store so tests can tamper with it.
func (m *Merkle) Hashes() [][32]byte { return m.hashes }

// children returns the child node IDs of n, or ok=false for leaves.
func (m *Merkle) children(n backend.NodeID) (left, right backend.NodeID, ok bool) {
	l := 2*uint64(n) + 1
	if l+1 >= m.p.NumNodes() {
		return 0, 0, false
	}
	return backend.NodeID(l), backend.NodeID(l + 1), true
}

// nodeHash computes H(node, ct, leftHash, rightHash) using the current
// (untrusted) child hashes.
func (m *Merkle) nodeHash(n backend.NodeID, ct []byte) [32]byte {
	h := sha256.New()
	var idb [8]byte
	binary.LittleEndian.PutUint64(idb[:], uint64(n))
	h.Write(idb[:])
	h.Write(ct)
	if l, r, ok := m.children(n); ok {
		h.Write(m.hashes[l][:])
		h.Write(m.hashes[r][:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// VerifyPath checks the ciphertexts read along the path to leaf against
// the trusted root. cts must be in root-to-leaf order (as Trace.ReadNodes
// yields them); nil entries stand for never-written buckets.
func (m *Merkle) VerifyPath(leaf uint64, cts [][]byte) error {
	nodes := backend.PathNodes(leaf, m.p.Levels)
	if len(cts) != len(nodes) {
		return fmt.Errorf("oram: merkle path needs %d buckets, got %d", len(nodes), len(cts))
	}
	// Recompute leaf-to-root, substituting the recomputed hash for the
	// on-path child at each step.
	var computed [32]byte
	for i := len(nodes) - 1; i >= 0; i-- {
		n := nodes[i]
		h := sha256.New()
		var idb [8]byte
		binary.LittleEndian.PutUint64(idb[:], uint64(n))
		h.Write(idb[:])
		h.Write(cts[i])
		if l, r, ok := m.children(n); ok {
			lh, rh := m.hashes[l], m.hashes[r]
			if i+1 < len(nodes) {
				if nodes[i+1] == l {
					lh = computed
				} else {
					rh = computed
				}
			}
			h.Write(lh[:])
			h.Write(rh[:])
		}
		h.Sum(computed[:0])
	}
	if computed != m.root {
		return ErrMerkle
	}
	return nil
}

// UpdatePath recomputes and stores the hashes for freshly written
// ciphertexts along the path to leaf (root-to-leaf order) and advances the
// trusted root. Callers must have verified the path first, or sibling
// hashes may be attacker-controlled.
func (m *Merkle) UpdatePath(leaf uint64, cts [][]byte) error {
	nodes := backend.PathNodes(leaf, m.p.Levels)
	if len(cts) != len(nodes) {
		return fmt.Errorf("oram: merkle path needs %d buckets, got %d", len(nodes), len(cts))
	}
	for i := len(nodes) - 1; i >= 0; i-- {
		m.hashes[nodes[i]] = m.nodeHash(nodes[i], cts[i])
	}
	m.root = m.hashes[0]
	return nil
}
