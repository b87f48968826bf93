package oram

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"doram/internal/oram/backend"
	"doram/internal/xrand"
)

var testKey = []byte("0123456789abcdef")

func smallParams() Params {
	return Params{Levels: 6, Z: 4, BlockSize: 64, TopCacheLevels: 2, StashCapacity: 400}
}

func newTestClient(t *testing.T, p Params, withMAC bool) *Client {
	t.Helper()
	c, err := NewClient(p, backend.NewMemStorage(p.NumNodes()), testKey, withMAC, 1234)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestParamsGeometry(t *testing.T) {
	p := PaperParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumLeaves() != 1<<23 {
		t.Errorf("NumLeaves = %d, want 2^23", p.NumLeaves())
	}
	if p.NumNodes() != 1<<24-1 {
		t.Errorf("NumNodes = %d, want 2^24-1", p.NumNodes())
	}
	// Paper: top 3 levels cached leaves 21 levels x 4 blocks per phase.
	if p.NodesPerAccess() != 21 {
		t.Errorf("NodesPerAccess = %d, want 21", p.NodesPerAccess())
	}
	if p.BlocksPerAccess() != 84 {
		t.Errorf("BlocksPerAccess = %d, want 84 (21 levels x Z=4)", p.BlocksPerAccess())
	}
	// 4 GB tree at 50% efficiency holds 2 GB of user blocks.
	if got := p.MaxBlocks() * 64; got < 2<<30-(1<<26) || got > 2<<30+(1<<26) {
		t.Errorf("user capacity = %d bytes, want about 2 GB", got)
	}
}

func TestNodeMath(t *testing.T) {
	// Level-by-level heap layout for a 3-level (L=2) tree.
	if n := backend.NodeAt(0, 3, 2); n != 0 {
		t.Errorf("root = %d, want 0", n)
	}
	if n := backend.NodeAt(1, 3, 2); n != 2 {
		t.Errorf("level-1 node for leaf 3 = %d, want 2", n)
	}
	if n := backend.NodeAt(2, 3, 2); n != 6 {
		t.Errorf("leaf node for leaf 3 = %d, want 6", n)
	}
	for _, tc := range []struct {
		node  backend.NodeID
		level int
		off   uint64
	}{{0, 0, 0}, {1, 1, 0}, {2, 1, 1}, {3, 2, 0}, {6, 2, 3}, {7, 3, 0}} {
		if l := tc.node.Level(); l != tc.level {
			t.Errorf("node %d: level = %d, want %d", tc.node, l, tc.level)
		}
		if o := tc.node.OffsetInLevel(); o != tc.off {
			t.Errorf("node %d: offset = %d, want %d", tc.node, o, tc.off)
		}
	}
	path := backend.PathNodes(3, 2)
	want := []backend.NodeID{0, 2, 6}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("PathNodes(3,2) = %v, want %v", path, want)
		}
	}
	if !backend.OnPath(2, 3, 2) || backend.OnPath(1, 3, 2) {
		t.Error("OnPath misclassifies nodes")
	}
}

func TestReadAfterWrite(t *testing.T) {
	c := newTestClient(t, smallParams(), true)
	msg := []byte("the quick brown fox jumps over the lazy dog........")
	if _, _, err := c.Access(OpWrite, 7, msg); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Access(OpRead, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(msg)], msg) {
		t.Fatalf("read back %q, want %q", got[:len(msg)], msg)
	}
}

func TestManyBlocksSurviveShuffling(t *testing.T) {
	p := smallParams()
	c := newTestClient(t, p, false)
	n := uint64(100)
	for i := uint64(0); i < n; i++ {
		data := []byte(fmt.Sprintf("block-%03d", i))
		if _, _, err := c.Access(OpWrite, i, data); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	// Interleave rereads and rewrites to force heavy reshuffling.
	rng := xrand.New(5)
	for step := 0; step < 500; step++ {
		i := rng.Uint64n(n)
		got, _, err := c.Access(OpRead, i, nil)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		want := fmt.Sprintf("block-%03d", i)
		if string(got[:len(want)]) != want {
			t.Fatalf("step %d: block %d = %q, want %q", step, i, got[:len(want)], want)
		}
	}
}

func TestFirstReadReturnsZeros(t *testing.T) {
	c := newTestClient(t, smallParams(), false)
	got, _, err := c.Access(OpRead, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("uninitialized block not zero-filled")
		}
	}
}

func TestAccessRejectsBadArgs(t *testing.T) {
	p := smallParams()
	c := newTestClient(t, p, false)
	if _, _, err := c.Access(OpRead, p.MaxBlocks(), nil); err == nil {
		t.Fatal("address beyond capacity accepted")
	}
	if _, _, err := c.Access(OpWrite, 0, make([]byte, p.BlockSize+1)); err == nil {
		t.Fatal("oversized data accepted")
	}
}

func TestTraceShape(t *testing.T) {
	p := smallParams()
	c := newTestClient(t, p, false)
	_, tr, err := c.Access(OpWrite, 1, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.ReadNodes) != p.NodesPerAccess() || len(tr.WriteNodes) != p.NodesPerAccess() {
		t.Fatalf("trace sizes %d/%d, want %d", len(tr.ReadNodes), len(tr.WriteNodes), p.NodesPerAccess())
	}
	// Reads go root-to-leaf, writes leaf-to-root, over the same nodes.
	for i, n := range tr.ReadNodes {
		if tr.WriteNodes[len(tr.WriteNodes)-1-i] != n {
			t.Fatalf("write nodes are not the reversed read nodes")
		}
		if !backend.OnPath(n, tr.Leaf, p.Levels) {
			t.Fatalf("node %d not on path to leaf %d", n, tr.Leaf)
		}
		if n.Level() < p.TopCacheLevels {
			t.Fatalf("trace contains top-cached node %d (level %d)", n, n.Level())
		}
		if i > 0 && tr.ReadNodes[i-1].Level() >= n.Level() {
			t.Fatal("read nodes not in root-to-leaf order")
		}
	}
}

func TestRemapChangesPosition(t *testing.T) {
	c := newTestClient(t, smallParams(), false)
	c.Access(OpWrite, 5, []byte("v"))
	changed := false
	prev := c.PositionOf(5)
	for i := 0; i < 20; i++ {
		c.Access(OpRead, 5, nil)
		if c.PositionOf(5) != prev {
			changed = true
		}
		prev = c.PositionOf(5)
	}
	if !changed {
		t.Fatal("position never changed over 20 accesses; remap broken")
	}
}

func TestDummyAccessTouchesFullPath(t *testing.T) {
	p := smallParams()
	c := newTestClient(t, p, false)
	tr, err := c.DummyAccess()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.ReadNodes) != p.NodesPerAccess() {
		t.Fatalf("dummy trace has %d reads, want %d", len(tr.ReadNodes), p.NodesPerAccess())
	}
	if c.Accesses() != 1 {
		t.Fatal("dummy access not counted")
	}
}

func TestStashStaysBounded(t *testing.T) {
	p := smallParams()
	c := newTestClient(t, p, false)
	// Load to 50% capacity (the paper's space-efficiency rule) and hammer.
	n := p.MaxBlocks() / 2
	for i := uint64(0); i < n; i++ {
		if _, _, err := c.Access(OpWrite, i, []byte{byte(i)}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	rng := xrand.New(77)
	for step := 0; step < 2000; step++ {
		if _, _, err := c.Access(OpRead, rng.Uint64n(n), nil); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if c.StashMax() > 150 {
		t.Fatalf("stash high-water %d is implausibly large for Z=4", c.StashMax())
	}
	t.Logf("stash high-water: %d (capacity %d)", c.StashMax(), p.StashCapacity)
}

func TestIntegrityDetectsTampering(t *testing.T) {
	p := smallParams()
	store := backend.NewMemStorage(p.NumNodes())
	c, err := NewClient(p, store, testKey, true, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Access(OpWrite, 1, []byte("secret")); err != nil {
		t.Fatal(err)
	}
	// Corrupt every stored bucket; the next access must fail.
	for n := uint64(0); n < p.NumNodes(); n++ {
		if buf := store.ReadBucket(backend.NodeID(n)); buf != nil {
			buf[0] ^= 0xff
			store.WriteBucket(backend.NodeID(n), buf)
		}
	}
	if _, _, err := c.Access(OpRead, 1, nil); err == nil {
		t.Fatal("tampered buckets accepted")
	}
}

func TestCiphertextIndistinguishableAcrossWrites(t *testing.T) {
	p := smallParams()
	store := backend.NewMemStorage(p.NumNodes())
	c, err := NewClient(p, store, testKey, false, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Same content written twice to the same bucket must differ on the bus
	// (version-salted re-encryption).
	if _, _, err := c.Access(OpWrite, 1, []byte("fixed")); err != nil {
		t.Fatal(err)
	}
	leafNode := backend.NodeID(p.NumNodes() - 1)
	_ = leafNode
	snapshots := map[backend.NodeID][]byte{}
	for n := uint64(0); n < p.NumNodes(); n++ {
		if buf := store.ReadBucket(backend.NodeID(n)); buf != nil {
			snapshots[backend.NodeID(n)] = append([]byte(nil), buf...)
		}
	}
	if _, _, err := c.Access(OpRead, 1, nil); err != nil {
		t.Fatal(err)
	}
	same := 0
	for n, old := range snapshots {
		if cur := store.ReadBucket(n); cur != nil && bytes.Equal(cur, old) {
			same++
		}
	}
	// Buckets on the accessed path were rewritten; identical ciphertext
	// would leak that content did not change.
	if same == len(snapshots) {
		t.Fatal("no bucket ciphertext changed across an access")
	}
}

// TestInvariantBlockOnAssignedPathOrStash is the core Path ORAM invariant:
// after any sequence of accesses, every logical block lives either in the
// stash, in the top cache, or in a bucket on the path to its assigned leaf.
func TestInvariantBlockOnAssignedPathOrStash(t *testing.T) {
	p := smallParams()
	store := backend.NewMemStorage(p.NumNodes())
	c, err := NewClient(p, store, testKey, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(60)
	rng := xrand.New(12)
	for step := 0; step < 300; step++ {
		addr := rng.Uint64n(n)
		if rng.Bool(0.5) {
			c.Access(OpWrite, addr, []byte{byte(step)})
		} else {
			c.Access(OpRead, addr, nil)
		}
	}
	// Locate every touched block.
	locations := map[uint64][]backend.NodeID{}
	for node := uint64(0); node < p.NumNodes(); node++ {
		sealed := store.ReadBucket(backend.NodeID(node))
		if sealed == nil {
			continue
		}
		plain, err := c.enc.Open(backend.NodeID(node), c.versions[node], sealed)
		if err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
		for _, b := range backend.DecodeBucket(nil, plain, p.Z, p.BlockSize, nil) {
			locations[b.Addr] = append(locations[b.Addr], backend.NodeID(node))
		}
	}
	inTop := map[uint64]bool{}
	for _, bucket := range c.top {
		for _, b := range bucket {
			inTop[b.Addr] = true
		}
	}
	for addr := uint64(0); addr < n; addr++ {
		leaf := c.PositionOf(addr)
		if leaf == backend.InvalidPath {
			continue
		}
		nodes := locations[addr]
		switch {
		case c.stash.Get(addr) != nil, inTop[addr]:
			if len(nodes) != 0 {
				t.Fatalf("block %d duplicated in stash/top and tree", addr)
			}
		case len(nodes) == 1:
			if !backend.OnPath(nodes[0], leaf, p.Levels) {
				t.Fatalf("block %d stored at node %d off its assigned path to leaf %d",
					addr, nodes[0], leaf)
			}
		case len(nodes) == 0:
			t.Fatalf("block %d lost: not in stash, top cache or tree", addr)
		default:
			t.Fatalf("block %d duplicated at nodes %v", addr, nodes)
		}
	}
}

func TestSamplerMatchesClientTraceShape(t *testing.T) {
	p := smallParams()
	s := NewSampler(p, 3)
	tr := s.Access(42)
	if len(tr.ReadNodes) != p.NodesPerAccess() || len(tr.WriteNodes) != p.NodesPerAccess() {
		t.Fatalf("sampler trace sizes %d/%d, want %d",
			len(tr.ReadNodes), len(tr.WriteNodes), p.NodesPerAccess())
	}
	for i, n := range tr.ReadNodes {
		if !backend.OnPath(n, tr.Leaf, p.Levels) {
			t.Fatalf("sampler node %d not on path", n)
		}
		if tr.WriteNodes[len(tr.WriteNodes)-1-i] != n {
			t.Fatal("sampler write nodes are not reversed read nodes")
		}
	}
	if s.MappedBlocks() != 1 {
		t.Fatalf("MappedBlocks = %d, want 1", s.MappedBlocks())
	}
}

func TestSamplerLeafDistributionIsUniformish(t *testing.T) {
	p := Params{Levels: 4, Z: 4, BlockSize: 64, TopCacheLevels: 1, StashCapacity: 100}
	s := NewSampler(p, 99)
	counts := make([]int, p.NumLeaves())
	const rounds = 16000
	// Repeated access to one hot address: remapping must spread leaves
	// uniformly regardless of the request stream.
	for i := 0; i < rounds; i++ {
		counts[s.Access(7).Leaf]++
	}
	want := rounds / int(p.NumLeaves())
	for leaf, got := range counts {
		if got < want/2 || got > want*2 {
			t.Fatalf("leaf %d hit %d times, want about %d: non-uniform remap", leaf, got, want)
		}
	}
}

func TestSamplerAtPaperScale(t *testing.T) {
	s := NewSampler(PaperParams(), 1)
	tr := s.Access(123456)
	if len(tr.ReadNodes) != 21 {
		t.Fatalf("paper-scale trace has %d reads, want 21", len(tr.ReadNodes))
	}
	if tr.ReadNodes[20].Level() != 23 {
		t.Fatalf("deepest node at level %d, want 23", tr.ReadNodes[20].Level())
	}
}

// TestSamplerIntoMatchesFreshTraces checks the fill routines against fresh
// traces: two samplers with one seed, one returning a new trace per access
// and one refilling a single buffer, agree on every trace under every
// eviction strategy, Fork Path on and off. The buffer first holds a
// longer deterministic-two-path trace, so a fill that kept stale nodes
// would show.
func TestSamplerIntoMatchesFreshTraces(t *testing.T) {
	p := smallParams()
	for _, name := range backend.Evictions() {
		for _, fork := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/forkpath=%v", name, fork), func(t *testing.T) {
				long := NewSampler(p, 1)
				if err := long.SetEviction(backend.EvictionDeterministicTwoPath); err != nil {
					t.Fatal(err)
				}
				buf := long.Dummy()
				fresh, into := NewSampler(p, 5), NewSampler(p, 5)
				for _, s := range []*Sampler{fresh, into} {
					if err := s.SetEviction(name); err != nil {
						t.Fatal(err)
					}
					s.SetForkPath(fork)
				}
				rng := xrand.New(9)
				for i := 0; i < 200; i++ {
					var want Trace
					if rng.Intn(2) == 0 {
						addr := rng.Uint64n(32)
						want = fresh.Access(addr)
						into.AccessInto(&buf, addr)
					} else {
						want = fresh.Dummy()
						into.DummyInto(&buf)
					}
					if buf.Leaf != want.Leaf || !slices.Equal(buf.ReadNodes, want.ReadNodes) ||
						!slices.Equal(buf.WriteNodes, want.WriteNodes) {
						t.Fatalf("access %d: filled trace %+v, fresh trace %+v", i, buf, want)
					}
				}
				if fresh.SkippedNodes() != into.SkippedNodes() {
					t.Fatalf("Fork Path skipped %d nodes filling, %d fresh",
						into.SkippedNodes(), fresh.SkippedNodes())
				}
			})
		}
	}
}

func TestStashOverflowSurfaces(t *testing.T) {
	p := smallParams()
	p.StashCapacity = 8
	c := newTestClient(t, p, false)
	var failed bool
	for i := uint64(0); i < p.MaxBlocks(); i++ {
		if _, _, err := c.Access(OpWrite, i, []byte{1}); err != nil {
			if _, ok := err.(backend.ErrStashOverflow); !ok {
				t.Fatalf("unexpected error type %T: %v", err, err)
			}
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("overfilling a tiny stash never overflowed")
	}
}

func TestPropertyPathNodeRoundTrip(t *testing.T) {
	f := func(rawLeaf uint32, rawLevel uint8) bool {
		levels := 10
		leaf := uint64(rawLeaf) % (1 << uint(levels))
		level := int(rawLevel) % (levels + 1)
		n := backend.NodeAt(level, leaf, levels)
		return n.Level() == level && backend.OnPath(n, leaf, levels)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBucketEncodeDecodeRoundTrip(t *testing.T) {
	f := func(addrs []uint16) bool {
		z, bs := 4, 32
		var blocks []*backend.Block
		for i, a := range addrs {
			if i >= z {
				break
			}
			blocks = append(blocks, &backend.Block{Addr: uint64(a), Leaf: uint64(a) * 3,
				Data: bytes.Repeat([]byte{byte(a)}, bs)})
		}
		got := backend.DecodeBucket(nil, backend.EncodeBucket(blocks, z, bs), z, bs, nil)
		if len(got) != len(blocks) {
			return false
		}
		for i := range got {
			if got[i].Addr != blocks[i].Addr || got[i].Leaf != blocks[i].Leaf ||
				!bytes.Equal(got[i].Data, blocks[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestForkPathSkipsSharedPrefix(t *testing.T) {
	p := smallParams()
	s := NewSampler(p, 3)
	s.SetForkPath(true)
	// Two accesses to the same leaf: the sampler remaps addr after each
	// access, so force the shared-path case with dummies to chosen leaves
	// via repeated access of one address and inspect trace lengths.
	full := p.NodesPerAccess()
	tr1 := s.Access(1)
	if len(tr1.ReadNodes) != full {
		t.Fatalf("first access read %d nodes, want %d", len(tr1.ReadNodes), full)
	}
	sawShorter := false
	for i := 0; i < 200 && !sawShorter; i++ {
		tr := s.Dummy()
		if len(tr.ReadNodes) < full {
			sawShorter = true
			if len(tr.WriteNodes) != len(tr.ReadNodes) {
				t.Fatal("fork path must skip symmetrically in both phases")
			}
		}
	}
	if !sawShorter {
		t.Fatal("200 random paths never shared a prefix; fork path inactive")
	}
	if s.SkippedNodes() == 0 {
		t.Fatal("skipped nodes not counted")
	}
}

func TestForkPathOffKeepsFullPaths(t *testing.T) {
	p := smallParams()
	s := NewSampler(p, 3)
	full := p.NodesPerAccess()
	for i := 0; i < 100; i++ {
		if tr := s.Dummy(); len(tr.ReadNodes) != full {
			t.Fatalf("access %d read %d nodes with fork path off", i, len(tr.ReadNodes))
		}
	}
	if s.SkippedNodes() != 0 {
		t.Fatal("nodes skipped with fork path off")
	}
}
