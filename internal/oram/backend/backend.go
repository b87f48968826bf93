// Package backend holds the pluggable building blocks of the functional
// Path ORAM client: the bucket-tree addressing scheme, the Storage,
// Encryptor and PositionMap interfaces with their stock implementations,
// the stash, and the eviction strategies. internal/oram composes these
// into the protocol (read-path / remap / write-path); comparator schemes
// swap implementations instead of forking the client.
//
// The file layout mirrors etclab/pathoram-go: storage.go, encryptor.go,
// posmap.go, stash.go, eviction.go, consttime.go.
package backend

import (
	"fmt"
	"math/bits"
	"sort"
)

// NodeID identifies a tree node by its index in heap order: node 0 is the
// root; the children of node n are 2n+1 and 2n+2.
type NodeID uint64

// NodeAt returns the node at the given level on the path to leaf.
func NodeAt(level int, leaf uint64, totalLevels int) NodeID {
	offset := leaf >> uint(totalLevels-level)
	return NodeID((uint64(1)<<uint(level) - 1) + offset)
}

// Level returns the tree level of node n (root = 0): level l holds nodes
// 2^l-1 through 2^(l+1)-2.
func (n NodeID) Level() int {
	if n == ^NodeID(0) {
		return 64 // n+1 would wrap
	}
	return bits.Len64(uint64(n)+1) - 1
}

// OffsetInLevel returns the node's position within its level.
func (n NodeID) OffsetInLevel() uint64 {
	l := n.Level()
	return uint64(n) - (uint64(1)<<uint(l) - 1)
}

// PathNodes returns all node IDs on the path from the root to leaf,
// root first.
func PathNodes(leaf uint64, levels int) []NodeID {
	nodes := make([]NodeID, levels+1)
	for l := 0; l <= levels; l++ {
		nodes[l] = NodeAt(l, leaf, levels)
	}
	return nodes
}

// OnPath reports whether node lies on the path to leaf.
func OnPath(node NodeID, leaf uint64, levels int) bool {
	return NodeAt(node.Level(), leaf, levels) == node
}

// InvalidPath marks a block with no assigned leaf.
const InvalidPath = ^uint64(0)

// Block is one logical data block held in the stash or a bucket.
type Block struct {
	Addr uint64
	Leaf uint64 // current path assignment
	Data []byte
}

// Mechanism names the integrity check that detected tampering.
type Mechanism string

// Integrity mechanisms.
const (
	// MechMAC is the per-bucket authenticator with trusted version
	// counters (HMAC tag or AEAD).
	MechMAC Mechanism = "mac"
	// MechMerkle is the hash tree over bucket ciphertexts.
	MechMerkle Mechanism = "merkle"
)

// ErrIntegrity reports one failed integrity verification: which tree node
// (and level) was being authenticated and which mechanism rejected it.
// A Merkle failure localizes only to the path, so Node is then the leaf
// bucket of the path being verified and Level is -1.
type ErrIntegrity struct {
	Node      NodeID
	Level     int
	Mechanism Mechanism
}

func (e ErrIntegrity) Error() string {
	if e.Level < 0 {
		return fmt.Sprintf("oram: %s verification failed on path to node %d", e.Mechanism, e.Node)
	}
	return fmt.Sprintf("oram: %s verification failed at node %d (level %d)",
		e.Mechanism, e.Node, e.Level)
}

// registry is an ordered table of named constructors, the one list a
// pluggable component's names, validation and construction read.
type registry[F any] []struct {
	name  string
	build F
}

// names returns the registered names, sorted.
func (r registry[F]) names() []string {
	names := make([]string, len(r))
	for i, e := range r {
		names[i] = e.name
	}
	sort.Strings(names)
	return names
}

// lookup returns the constructor registered under name, with "" standing
// for def.
func (r registry[F]) lookup(name, def string) (F, bool) {
	if name == "" {
		name = def
	}
	for _, e := range r {
		if e.name == name {
			return e.build, true
		}
	}
	var zero F
	return zero, false
}
