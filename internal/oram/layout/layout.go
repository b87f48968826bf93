// Package layout maps Path ORAM tree nodes to physical memory locations.
//
// Two concerns live here:
//
//   - The subtree layout of Ren et al. (ISCA 2013): levels below the
//     cached tree top are grouped into layers of (by default) 7 levels, and
//     each 127-node subtree is stored contiguously. A 127-node subtree at
//     64 B per block spans 8128 bytes — just under one 8 KB DRAM row — so
//     the ~7 blocks a path reads from one subtree on one sub-channel are
//     row-buffer hits. The paper adopts this layout in §IV.
//
//   - The D-ORAM tree split (§III-C): with split parameter k > 0 the last
//     k tree levels are relocated from the secure channel to the three
//     normal channels. Each relocated node's four blocks go to channels
//     #i, #1, #2, #3 where #i = (id mod 3) + 1 rotates per node, matching
//     Table I's space distribution.
package layout

import (
	"fmt"

	"doram/internal/oram"
	"doram/internal/oram/backend"
)

// DefaultSubtreeLevels is the subtree depth used by the paper (7 levels).
const DefaultSubtreeLevels = 7

// NumNormalChannels is the number of non-secure channels blocks spill to.
const NumNormalChannels = 3

// Placement locates one block (node, slot) in the memory system.
type Placement struct {
	// Remote is true when the block lives on a normal channel (split
	// levels); false when it lives on the secure channel's sub-channels.
	Remote bool
	// Channel is the normal-channel index 1..3 when Remote.
	Channel int
	// SubChannel is the secure channel's sub-channel 0..3 when local.
	SubChannel int
	// Addr is the byte address within the owning channel's ORAM region.
	Addr uint64
}

// Layout computes placements for one ORAM instance.
type Layout struct {
	p             oram.Params
	subtreeLevels int
	splitK        int

	// layerNodeBase[j] is the cumulative node count of all layers before
	// layer j in the linearized order, so indices stay dense across layers
	// of differing subtree sizes.
	layerNodeBase []uint64
}

// New builds a layout for the given (possibly expanded) tree. splitK
// bottom levels are relocated to the normal channels; splitK = 0 keeps the
// entire tree on the secure channel. It panics on invalid parameters,
// which are configuration programming errors.
func New(p oram.Params, subtreeLevels, splitK int) *Layout {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if subtreeLevels < 1 {
		panic("layout: subtreeLevels must be positive")
	}
	if splitK < 0 || splitK > p.Levels+1-p.TopCacheLevels {
		panic(fmt.Sprintf("layout: splitK %d out of range", splitK))
	}
	l := &Layout{p: p, subtreeLevels: subtreeLevels, splitK: splitK}
	// Precompute node-index bases per layer over the local (non-split,
	// non-cached) levels.
	var cum uint64
	for base := p.TopCacheLevels; base <= l.lastLocalLevel(); base += subtreeLevels {
		l.layerNodeBase = append(l.layerNodeBase, cum)
		roots := uint64(1) << uint(base)
		cum += roots * l.subtreeNodes(base)
	}
	return l
}

// Params returns the tree parameters the layout covers.
func (l *Layout) Params() oram.Params { return l.p }

// SplitK returns the number of relocated bottom levels.
func (l *Layout) SplitK() int { return l.splitK }

// lastLocalLevel returns the deepest level stored on the secure channel.
func (l *Layout) lastLocalLevel() int { return l.p.Levels - l.splitK }

// firstRemoteNode returns the heap index of the first relocated node.
func (l *Layout) firstRemoteNode() uint64 {
	return (uint64(1) << uint(l.lastLocalLevel()+1)) - 1
}

// IsRemote reports whether node lives on a normal channel.
func (l *Layout) IsRemote(node backend.NodeID) bool {
	return l.splitK > 0 && uint64(node) >= l.firstRemoteNode()
}

// LocalIndex returns the subtree-linearized index of a node stored on the
// secure channel: the node's position in the contiguous block array each
// sub-channel holds. It panics for cached or remote nodes.
func (l *Layout) LocalIndex(node backend.NodeID) uint64 {
	level := node.Level()
	if level < l.p.TopCacheLevels {
		panic(fmt.Sprintf("layout: node %d is inside the cached tree top", node))
	}
	if l.IsRemote(node) {
		panic(fmt.Sprintf("layout: node %d is relocated to a normal channel", node))
	}
	layer := (level - l.p.TopCacheLevels) / l.subtreeLevels
	rootLevel := l.p.TopCacheLevels + layer*l.subtreeLevels
	depth := level - rootLevel

	offset := node.OffsetInLevel()
	rootOffset := offset >> uint(depth)

	localOffset := offset - rootOffset<<uint(depth)
	localIdx := (uint64(1) << uint(depth)) - 1 + localOffset
	return l.layerNodeBase[layer] + rootOffset*l.subtreeNodes(rootLevel) + localIdx
}

// subtreeNodes returns the node count of subtrees rooted at rootLevel
// (the final layer may be shallower than subtreeLevels).
func (l *Layout) subtreeNodes(rootLevel int) uint64 {
	depth := l.subtreeLevels
	if rem := l.lastLocalLevel() - rootLevel + 1; rem < depth {
		depth = rem
	}
	return (uint64(1) << uint(depth)) - 1
}

// Place locates block slot (0..Z-1) of node. For local nodes, slot selects
// the sub-channel (the paper stripes each node's four blocks across the
// four sub-channels) and the address is the linearized node index scaled
// by the block size. For remote nodes, slot 0 goes to the rotating channel
// #i = (id mod 3) + 1 and slots 1..Z-1 to channels 1..3.
func (l *Layout) Place(node backend.NodeID, slot int) Placement {
	if slot < 0 || slot >= l.p.Z {
		panic(fmt.Sprintf("layout: slot %d out of range [0,%d)", slot, l.p.Z))
	}
	if !l.IsRemote(node) {
		return Placement{
			SubChannel: slot % 4,
			Addr:       l.LocalIndex(node) * uint64(l.p.BlockSize),
		}
	}
	remoteIdx := uint64(node) - l.firstRemoteNode()
	var channel int
	var class uint64
	if slot == 0 {
		channel = int(node.OffsetInLevel()%NumNormalChannels) + 1
		class = 0
	} else {
		channel = (slot-1)%NumNormalChannels + 1
		class = 1
	}
	return Placement{
		Remote:  true,
		Channel: channel,
		Addr:    (remoteIdx*2 + class) * uint64(l.p.BlockSize),
	}
}

// BlockDistribution returns the fraction of all tree blocks stored on the
// secure channel (index 0) and each normal channel (indices 1..3) — the
// quantity Table I reports.
func (l *Layout) BlockDistribution() [1 + NumNormalChannels]float64 {
	var counts [1 + NumNormalChannels]uint64
	levels := l.p.Levels
	for level := 0; level <= levels; level++ {
		nodes := uint64(1) << uint(level)
		if level <= l.lastLocalLevel() {
			counts[0] += nodes * uint64(l.p.Z)
			continue
		}
		// Remote level: slot 0 rotates across the three channels evenly;
		// slots 1..Z-1 go to fixed channels.
		for c := 1; c <= NumNormalChannels; c++ {
			counts[c] += nodes / NumNormalChannels * 1
		}
		// Distribute the remainder of the rotation deterministically.
		for r := uint64(0); r < nodes%NumNormalChannels; r++ {
			counts[1+int(r%NumNormalChannels)]++
		}
		for slot := 1; slot < l.p.Z; slot++ {
			counts[(slot-1)%NumNormalChannels+1] += nodes
		}
	}
	total := l.p.TotalSlots()
	var out [1 + NumNormalChannels]float64
	for i, c := range counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// ExtraMessages returns the additional serial-link messages one ORAM
// access incurs under split k, per Table I: the secure channel's link
// carries 4k short read packets, 4k response packets and 4k write packets;
// each normal channel's link carries m of each with m in [k, 2k].
func ExtraMessages(k, z int) (ch0Each int, normalMin, normalMax int) {
	return z * k, k, 2 * k
}
