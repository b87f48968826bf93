package layout

import (
	"math"
	"testing"

	"doram/internal/oram"
	"doram/internal/oram/backend"
)

func params(levels, top int) oram.Params {
	return oram.Params{Levels: levels, Z: 4, BlockSize: 64, TopCacheLevels: top, StashCapacity: 200}
}

func TestLocalIndexIsBijective(t *testing.T) {
	p := params(10, 3)
	l := New(p, DefaultSubtreeLevels, 0)
	seen := map[uint64]backend.NodeID{}
	first := uint64(1)<<uint(p.TopCacheLevels) - 1
	for n := first; n < p.NumNodes(); n++ {
		idx := l.LocalIndex(backend.NodeID(n))
		if prev, dup := seen[idx]; dup {
			t.Fatalf("nodes %d and %d share local index %d", prev, n, idx)
		}
		seen[idx] = backend.NodeID(n)
	}
	// Indices must be dense: exactly as many as non-cached nodes.
	want := p.NumNodes() - first
	if uint64(len(seen)) != want {
		t.Fatalf("%d distinct indices, want %d", len(seen), want)
	}
	for idx := range seen {
		if idx >= want {
			t.Fatalf("index %d outside dense range [0,%d)", idx, want)
		}
	}
}

func TestSubtreeLocalityAlongPath(t *testing.T) {
	// A path's nodes within one subtree layer must land in one contiguous
	// 127-node window: that is the row-buffer-hit property.
	p := params(17, 3) // levels 3..17: two full 7-level layers
	l := New(p, DefaultSubtreeLevels, 0)
	leaf := uint64(0x155) % p.NumLeaves()
	var prevIdx uint64
	for layer := 0; layer < 2; layer++ {
		base := p.TopCacheLevels + layer*DefaultSubtreeLevels
		var lo, hi uint64 = math.MaxUint64, 0
		for d := 0; d < DefaultSubtreeLevels; d++ {
			node := backend.NodeAt(base+d, leaf, p.Levels)
			idx := l.LocalIndex(node)
			if idx < lo {
				lo = idx
			}
			if idx > hi {
				hi = idx
			}
			prevIdx = idx
		}
		_ = prevIdx
		if hi-lo >= 127 {
			t.Fatalf("layer %d: path nodes span indices [%d,%d], want within one 127-node subtree", layer, lo, hi)
		}
	}
}

func TestPlaceLocalStripesSubChannels(t *testing.T) {
	p := params(10, 3)
	l := New(p, DefaultSubtreeLevels, 0)
	node := backend.NodeAt(5, 3, p.Levels)
	for slot := 0; slot < p.Z; slot++ {
		pl := l.Place(node, slot)
		if pl.Remote {
			t.Fatalf("slot %d placed remote with splitK=0", slot)
		}
		if pl.SubChannel != slot%4 {
			t.Fatalf("slot %d on sub-channel %d, want %d", slot, pl.SubChannel, slot%4)
		}
		if pl.Addr != l.LocalIndex(node)*64 {
			t.Fatalf("slot %d address %d, want linear index scaled", slot, pl.Addr)
		}
	}
}

func TestIsRemoteBoundary(t *testing.T) {
	p := params(10, 3)
	l := New(p, DefaultSubtreeLevels, 2)
	// Levels 9 and 10 are remote; level 8 is local.
	local := backend.NodeAt(8, 0, p.Levels)
	remote9 := backend.NodeAt(9, 0, p.Levels)
	remote10 := backend.NodeAt(10, 0, p.Levels)
	if l.IsRemote(local) {
		t.Fatal("level-8 node classified remote with k=2 on an 11-level tree")
	}
	if !l.IsRemote(remote9) || !l.IsRemote(remote10) {
		t.Fatal("bottom-2-level nodes not classified remote")
	}
}

func TestPlaceRemoteChannels(t *testing.T) {
	p := params(10, 3)
	l := New(p, DefaultSubtreeLevels, 1)
	// Slot 0 rotates with node offset; slots 1..3 are fixed channels 1..3.
	for off := uint64(0); off < 9; off++ {
		node := backend.NodeID(p.NumNodes() - p.NumLeaves() + off)
		pl0 := l.Place(node, 0)
		if !pl0.Remote {
			t.Fatalf("leaf node %d slot 0 not remote under k=1", node)
		}
		if want := int(off%3) + 1; pl0.Channel != want {
			t.Fatalf("node offset %d slot 0 on channel %d, want %d", off, pl0.Channel, want)
		}
		for slot := 1; slot < 4; slot++ {
			pl := l.Place(node, slot)
			if pl.Channel != slot {
				t.Fatalf("slot %d on channel %d, want %d", slot, pl.Channel, slot)
			}
		}
	}
}

func TestRemoteAddressesDistinctPerChannel(t *testing.T) {
	p := params(10, 3)
	l := New(p, DefaultSubtreeLevels, 1)
	type key struct {
		ch   int
		addr uint64
	}
	seen := map[key][2]interface{}{}
	start := p.NumNodes() - p.NumLeaves()
	for off := uint64(0); off < p.NumLeaves(); off++ {
		node := backend.NodeID(start + off)
		for slot := 0; slot < p.Z; slot++ {
			pl := l.Place(node, slot)
			k := key{pl.Channel, pl.Addr}
			if prev, dup := seen[k]; dup && !(prev[0] == node && prev[1] == slot) {
				t.Fatalf("channel %d addr %#x assigned to both %v and (%d,%d)",
					pl.Channel, pl.Addr, prev, node, slot)
			}
			seen[k] = [2]interface{}{node, slot}
		}
	}
}

// TestBlockDistributionMatchesTableI reproduces Table I's space split.
func TestBlockDistributionMatchesTableI(t *testing.T) {
	cases := []struct {
		k       int
		ch0     float64
		normal  float64
		withinP float64
	}{
		{1, 0.500, 0.167, 0.002},
		{2, 0.250, 0.250, 0.002},
		{3, 0.125, 0.292, 0.002},
	}
	for _, tc := range cases {
		// Expanded tree: the paper's L=23 grows by k levels. Use a smaller
		// base (L=15) for test speed; fractions depend only on k.
		p := params(15+tc.k, 3)
		l := New(p, DefaultSubtreeLevels, tc.k)
		d := l.BlockDistribution()
		if math.Abs(d[0]-tc.ch0) > tc.withinP {
			t.Errorf("k=%d: channel 0 share %.3f, want %.3f (Table I)", tc.k, d[0], tc.ch0)
		}
		for c := 1; c <= 3; c++ {
			if math.Abs(d[c]-tc.normal) > tc.withinP {
				t.Errorf("k=%d: channel %d share %.3f, want %.3f (Table I)", tc.k, c, d[c], tc.normal)
			}
		}
		sum := d[0] + d[1] + d[2] + d[3]
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("k=%d: distribution sums to %v", tc.k, sum)
		}
	}
}

func TestExtraMessagesMatchesTableI(t *testing.T) {
	for k := 1; k <= 3; k++ {
		ch0, lo, hi := ExtraMessages(k, 4)
		if ch0 != 4*k {
			t.Errorf("k=%d: channel-0 extra messages %d, want %d", k, ch0, 4*k)
		}
		if lo != k || hi != 2*k {
			t.Errorf("k=%d: normal channel range [%d,%d], want [%d,%d]", k, lo, hi, k, 2*k)
		}
	}
}

func TestNewPanicsOnBadArgs(t *testing.T) {
	p := params(10, 3)
	for i, f := range []func(){
		func() { New(p, 0, 0) },
		func() { New(p, DefaultSubtreeLevels, -1) },
		func() { New(p, DefaultSubtreeLevels, 9) }, // more than levels below cache
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid layout accepted", i)
				}
			}()
			f()
		}()
	}
}

func TestLocalIndexPanicsOutsideDomain(t *testing.T) {
	p := params(10, 3)
	l := New(p, DefaultSubtreeLevels, 1)
	for i, node := range []backend.NodeID{0, backend.NodeAt(10, 0, 10)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: LocalIndex accepted node %d", i, node)
				}
			}()
			l.LocalIndex(node)
		}()
	}
}

func TestPaperScaleLayout(t *testing.T) {
	// L=23, top 3 cached, split 1: the full D-ORAM+1 configuration.
	p := oram.PaperParams()
	p.Levels = 24 // expanded by k=1
	l := New(p, DefaultSubtreeLevels, 1)
	leaf := uint64(123456789) % p.NumLeaves()
	remote := 0
	for level := p.TopCacheLevels; level <= p.Levels; level++ {
		node := backend.NodeAt(level, leaf, p.Levels)
		if l.IsRemote(node) {
			remote++
		} else {
			_ = l.LocalIndex(node) // must not panic
		}
	}
	if remote != 1 {
		t.Fatalf("path has %d remote levels under k=1, want 1", remote)
	}
}
