// Package oram implements the Path ORAM protocol of Stefanov et al. (CCS
// 2013) as used by D-ORAM: a binary tree of encrypted buckets, a position
// map assigning each logical block to a uniformly random leaf, a stash of
// in-transit blocks, and the read-path / remap / write-path access flow.
//
// The package supports two uses:
//
//   - Functional storage (Client over a Storage) with real AES-CTR bucket
//     encryption and optional integrity tags — this is what the examples
//     and correctness tests exercise.
//   - Address-stream generation for the timing simulator: every Access
//     returns a Trace naming the tree nodes read and written, which the
//     secure delegator converts into DRAM transactions.
package oram

import (
	"fmt"
)

// Params configures a Path ORAM instance.
type Params struct {
	// Levels is L: the tree has L+1 levels and 2^L leaves.
	Levels int
	// Z is the bucket capacity in blocks.
	Z int
	// BlockSize is the payload bytes per block (one cache line: 64).
	BlockSize int
	// TopCacheLevels is the number of tree levels (from the root) cached
	// inside the controller; accesses to them cost no memory traffic.
	// The paper caches the top 3 levels (§IV).
	TopCacheLevels int
	// StashCapacity bounds the stash; exceeding it is a protocol failure
	// surfaced as an error.
	StashCapacity int
}

// PaperParams returns the evaluation configuration of §IV: a 4 GB tree
// (L=23, Z=4, 64 B blocks) with the top 3 levels cached. Functional
// instances of this size would allocate 4 GB, so tests and examples use
// smaller Levels with the same Z and caching depth.
func PaperParams() Params {
	return Params{Levels: 23, Z: 4, BlockSize: 64, TopCacheLevels: 3, StashCapacity: 200}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.Levels < 1 || p.Levels > 40:
		return fmt.Errorf("oram: Levels %d out of range [1,40]", p.Levels)
	case p.Z < 1:
		return fmt.Errorf("oram: Z must be positive")
	case p.BlockSize < 8:
		return fmt.Errorf("oram: BlockSize must be at least 8 bytes")
	case p.TopCacheLevels < 0 || p.TopCacheLevels > p.Levels:
		return fmt.Errorf("oram: TopCacheLevels %d out of [0,%d]", p.TopCacheLevels, p.Levels)
	case p.StashCapacity < p.Z:
		return fmt.Errorf("oram: StashCapacity must hold at least one bucket")
	}
	return nil
}

// NumLeaves returns 2^L.
func (p Params) NumLeaves() uint64 { return 1 << uint(p.Levels) }

// NumNodes returns the total node count 2^(L+1) - 1.
func (p Params) NumNodes() uint64 { return (1 << uint(p.Levels+1)) - 1 }

// TotalSlots returns the total block slots in the tree.
func (p Params) TotalSlots() uint64 { return p.NumNodes() * uint64(p.Z) }

// MaxBlocks returns the logical block capacity at the paper's 50% space
// efficiency (§III-C: a 4 GB tree holds 2 GB of user data to keep the
// overflow probability negligible).
func (p Params) MaxBlocks() uint64 { return p.TotalSlots() / 2 }

// NodesPerAccess returns how many tree nodes one access touches in memory
// (levels below the top cache), per phase.
func (p Params) NodesPerAccess() int { return p.Levels + 1 - p.TopCacheLevels }

// BlocksPerAccess returns how many memory blocks one phase transfers.
func (p Params) BlocksPerAccess() int { return p.NodesPerAccess() * p.Z }

// NodeID, NodeAt, PathNodes and OnPath — the heap-order tree addressing —
// live in the backend subpackage.
