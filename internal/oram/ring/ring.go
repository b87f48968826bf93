// Package ring implements Ring ORAM (Ren et al., USENIX Security 2015),
// the bandwidth-optimized Path ORAM variant the paper's related work
// contrasts with (§VI). Each bucket holds Z real slots plus S dummies
// behind a per-bucket permutation; an access reads just one block per
// bucket along the path (the target where present, a fresh dummy
// elsewhere), and full-path evictions happen only every A accesses in
// reverse-lexicographic leaf order. Online bandwidth per access is thus
// L+1 blocks instead of Path ORAM's Z(L+1).
//
// The implementation is functional: real data, per-slot encryption and
// sealed bucket metadata, with I/O counters so benchmarks can compare
// block movement against Path ORAM.
package ring

import (
	"encoding/binary"
	"fmt"

	"doram/internal/oram"
	"doram/internal/oram/backend"
	"doram/internal/stats"
	"doram/internal/xrand"
)

// Params configures a Ring ORAM instance.
type Params struct {
	// Levels is L: the tree has L+1 levels and 2^L leaves.
	Levels int
	// Z is the real-block capacity per bucket.
	Z int
	// S is the dummy-slot count per bucket; a bucket serves S accesses
	// between reshuffles.
	S int
	// A is the eviction rate: one full-path eviction every A accesses.
	A int
	// BlockSize is the payload bytes per block.
	BlockSize int
	// StashCapacity bounds the stash.
	StashCapacity int
}

// DefaultParams returns the small-Z configuration of the Ring ORAM paper
// (Z=4, S=5, A=3).
func DefaultParams(levels int) Params {
	return Params{Levels: levels, Z: 4, S: 5, A: 3, BlockSize: 64, StashCapacity: 600}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.Levels < 1 || p.Levels > 32:
		return fmt.Errorf("ring: Levels %d out of range", p.Levels)
	case p.Z < 1 || p.S < 1:
		return fmt.Errorf("ring: Z and S must be positive")
	case p.A < 1 || p.A > p.Z:
		return fmt.Errorf("ring: A must be in [1, Z] for stash stability")
	case p.BlockSize < 8:
		return fmt.Errorf("ring: BlockSize too small")
	case p.StashCapacity < p.Z:
		return fmt.Errorf("ring: stash must hold at least one bucket")
	}
	return nil
}

// NumLeaves returns 2^L.
func (p Params) NumLeaves() uint64 { return 1 << uint(p.Levels) }

// NumNodes returns 2^(L+1)-1.
func (p Params) NumNodes() uint64 { return 1<<uint(p.Levels+1) - 1 }

// MaxBlocks returns the logical capacity at 50% utilization of real slots.
func (p Params) MaxBlocks() uint64 { return p.NumNodes() * uint64(p.Z) / 2 }

// IOStats counts block movement between client and untrusted memory.
type IOStats struct {
	Accesses     stats.Counter
	BlocksRead   stats.Counter // single-slot online reads
	BlocksWrit   stats.Counter // full-bucket writes (evictions, reshuffles)
	Evictions    stats.Counter
	EarlyShuffle stats.Counter
	MetaReads    stats.Counter
}

// bucket is the untrusted per-node state: sealed slots plus a sealed
// metadata header.
type bucket struct {
	slots   [][]byte // sealed per-slot payloads, len Z+S
	meta    []byte   // sealed header
	version uint64
}

// slotMeta is the decrypted header: per-slot logical address (or dummy)
// and consumed flags, plus the access count since the last reshuffle.
type slotMeta struct {
	addrs    []uint64 // oram.InvalidPath-like sentinel for dummies
	leaves   []uint64
	consumed []bool
	count    int
}

const dummyAddr = ^uint64(0)

// Client is a functional Ring ORAM.
type Client struct {
	p       Params
	pos     *backend.FlatMap
	stash   *backend.Stash
	buckets []bucket
	crypto  *backend.CTRHMACEncryptor
	rng     *xrand.Rand

	round     uint64 // accesses since start, drives eviction schedule
	evictLeaf uint64 // reverse-lexicographic eviction pointer

	// pinned guards the in-flight access's block: an early reshuffle
	// during the path read must not evict it out of the stash before the
	// access serves it.
	pinned    uint64
	hasPinned bool

	stats IOStats
}

// New builds a Ring ORAM with in-memory untrusted storage.
func New(p Params, key []byte, seed uint64) (*Client, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	crypto, err := backend.NewCTRHMACEncryptor(key, false)
	if err != nil {
		return nil, err
	}
	c := &Client{
		p:       p,
		pos:     backend.NewFlatMap(p.MaxBlocks()),
		stash:   backend.NewStash(p.StashCapacity),
		buckets: make([]bucket, p.NumNodes()),
		crypto:  crypto,
		rng:     xrand.New(seed),
	}
	for n := range c.buckets {
		c.initBucket(backend.NodeID(n), nil)
	}
	c.stats = IOStats{} // initialization writes are not access I/O
	return c, nil
}

// Stats returns the I/O counters.
func (c *Client) Stats() *IOStats { return &c.stats }

// StashLen returns the stash occupancy.
func (c *Client) StashLen() int { return c.stash.Len() }

// StashMax returns the stash high-water mark.
func (c *Client) StashMax() int { return c.stash.MaxSeen() }

// Params returns the configuration.
func (c *Client) Params() Params { return c.p }

// metaKeyFor derives the metadata nonce space from the slot space.
func metaVersion(v uint64) uint64 { return v | 1<<63 }

// initBucket (re)writes node with the given real blocks (nil for empty)
// and fresh dummies behind a new random permutation.
func (c *Client) initBucket(node backend.NodeID, blocks []*backend.Block) {
	total := c.p.Z + c.p.S
	b := &c.buckets[node]
	b.version++
	b.slots = make([][]byte, total)
	m := slotMeta{
		addrs:    make([]uint64, total),
		leaves:   make([]uint64, total),
		consumed: make([]bool, total),
	}
	// Random permutation of slot indices.
	perm := make([]int, total)
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := c.rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := 0; i < total; i++ {
		slot := perm[i]
		var payload []byte
		if i < len(blocks) {
			m.addrs[slot] = blocks[i].Addr
			m.leaves[slot] = blocks[i].Leaf
			payload = blocks[i].Data
		} else {
			m.addrs[slot] = dummyAddr
			payload = make([]byte, c.p.BlockSize)
		}
		buf := make([]byte, c.p.BlockSize)
		copy(buf, payload)
		b.slots[slot] = c.crypto.Seal(node, b.version<<8|uint64(slot), buf)
	}
	b.meta = c.crypto.Seal(node, metaVersion(b.version), encodeMeta(&m, total))
	c.stats.BlocksWrit.Add(uint64(total))
}

func encodeMeta(m *slotMeta, total int) []byte {
	buf := make([]byte, 8+total*17)
	binary.LittleEndian.PutUint64(buf, uint64(m.count))
	for i := 0; i < total; i++ {
		off := 8 + i*17
		binary.LittleEndian.PutUint64(buf[off:], m.addrs[i])
		binary.LittleEndian.PutUint64(buf[off+8:], m.leaves[i])
		if m.consumed[i] {
			buf[off+16] = 1
		}
	}
	return buf
}

func decodeMeta(buf []byte, total int) *slotMeta {
	m := &slotMeta{
		addrs:    make([]uint64, total),
		leaves:   make([]uint64, total),
		consumed: make([]bool, total),
		count:    int(binary.LittleEndian.Uint64(buf)),
	}
	for i := 0; i < total; i++ {
		off := 8 + i*17
		m.addrs[i] = binary.LittleEndian.Uint64(buf[off:])
		m.leaves[i] = binary.LittleEndian.Uint64(buf[off+8:])
		m.consumed[i] = buf[off+16] == 1
	}
	return m
}

// readMeta fetches and decrypts a bucket's header.
func (c *Client) readMeta(node backend.NodeID) (*slotMeta, error) {
	b := &c.buckets[node]
	c.stats.MetaReads.Inc()
	// Open consumes its input; b.meta is the bucket's stored header.
	plain, err := c.crypto.Open(node, metaVersion(b.version), append([]byte(nil), b.meta...))
	if err != nil {
		return nil, err
	}
	return decodeMeta(plain, c.p.Z+c.p.S), nil
}

// writeMeta re-seals a bucket's header in place (same version: header
// updates within a round do not rewrite slots).
func (c *Client) writeMeta(node backend.NodeID, m *slotMeta) {
	b := &c.buckets[node]
	b.meta = c.crypto.Seal(node, metaVersion(b.version), encodeMeta(m, c.p.Z+c.p.S))
}

// readSlot fetches and decrypts a copy of one slot, leaving the stored
// slot sealed.
func (c *Client) readSlot(node backend.NodeID, slot int) ([]byte, error) {
	b := &c.buckets[node]
	c.stats.BlocksRead.Inc()
	return c.crypto.Open(node, b.version<<8|uint64(slot), append([]byte(nil), b.slots[slot]...))
}

// Access reads or writes logical block addr.
func (c *Client) Access(op oram.Op, addr uint64, data []byte) ([]byte, error) {
	if addr >= c.p.MaxBlocks() {
		return nil, fmt.Errorf("ring: address %d beyond capacity %d", addr, c.p.MaxBlocks())
	}
	leaf := c.pos.Get(addr)
	if leaf == backend.InvalidPath {
		leaf = c.rng.Uint64n(c.p.NumLeaves())
		c.pos.Set(addr, leaf)
	}
	newLeaf := c.rng.Uint64n(c.p.NumLeaves())
	c.pos.Set(addr, newLeaf)

	// Read one slot per bucket along the path, pinning the target so an
	// early reshuffle cannot evict it before it is served.
	c.pinned, c.hasPinned = addr, true
	for _, node := range backend.PathNodes(leaf, c.p.Levels) {
		if err := c.readPathBucket(node, addr, newLeaf); err != nil {
			c.hasPinned = false
			return nil, err
		}
	}
	c.hasPinned = false

	// Serve from the stash (the path read moved the block there).
	blk := c.stash.Get(addr)
	if blk == nil {
		blk = &backend.Block{Addr: addr, Leaf: newLeaf, Data: make([]byte, c.p.BlockSize)}
		if err := c.stash.Put(blk); err != nil {
			return nil, err
		}
	}
	blk.Leaf = newLeaf
	if op == oram.OpWrite {
		copy(blk.Data, data)
		for i := len(data); i < len(blk.Data); i++ {
			blk.Data[i] = 0
		}
	}
	out := append([]byte(nil), blk.Data...)

	c.stats.Accesses.Inc()
	c.round++
	if c.round%uint64(c.p.A) == 0 {
		if err := c.evictPath(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readPathBucket performs the single-slot online read of one bucket: the
// target block if the bucket holds it, otherwise a fresh dummy; buckets
// that exhaust their dummies reshuffle early.
func (c *Client) readPathBucket(node backend.NodeID, addr uint64, newLeaf uint64) error {
	m, err := c.readMeta(node)
	if err != nil {
		return err
	}
	slot := -1
	for i, a := range m.addrs {
		if a == addr && !m.consumed[i] {
			slot = i
			break
		}
	}
	if slot < 0 {
		// Pick an unconsumed dummy.
		for i, a := range m.addrs {
			if a == dummyAddr && !m.consumed[i] {
				slot = i
				break
			}
		}
	}
	if slot < 0 {
		// No usable slot left (pathological): early reshuffle, then the
		// bucket is fresh and a dummy is available.
		if err := c.reshuffle(node, m); err != nil {
			return err
		}
		m, err = c.readMeta(node)
		if err != nil {
			return err
		}
		for i, a := range m.addrs {
			if a == dummyAddr && !m.consumed[i] {
				slot = i
				break
			}
		}
	}
	payload, err := c.readSlot(node, slot)
	if err != nil {
		return err
	}
	if m.addrs[slot] == addr {
		blk := &backend.Block{Addr: addr, Leaf: newLeaf, Data: payload}
		if err := c.stash.Put(blk); err != nil {
			return err
		}
	}
	m.consumed[slot] = true
	m.count++
	if m.count >= c.p.S {
		return c.reshuffle(node, m)
	}
	c.writeMeta(node, m)
	return nil
}

// reshuffle reads a bucket's surviving real blocks into the stash and
// rewrites it fresh (early reshuffle when dummies run out).
func (c *Client) reshuffle(node backend.NodeID, m *slotMeta) error {
	c.stats.EarlyShuffle.Inc()
	if err := c.drainBucket(node, m); err != nil {
		return err
	}
	// Refill from the stash with blocks that may live at this node.
	blocks := c.evictForNode(node)
	c.initBucket(node, blocks)
	return nil
}

// drainBucket moves every valid unconsumed real block into the stash.
func (c *Client) drainBucket(node backend.NodeID, m *slotMeta) error {
	for i, a := range m.addrs {
		if a == dummyAddr || m.consumed[i] {
			continue
		}
		payload, err := c.readSlot(node, i)
		if err != nil {
			return err
		}
		// Skip stale copies: the live copy is in the stash or mapped
		// elsewhere after its last access consumed this slot's bucket.
		if c.stash.Get(a) != nil {
			continue
		}
		if err := c.stash.Put(&backend.Block{Addr: a, Leaf: m.leaves[i], Data: payload}); err != nil {
			return err
		}
	}
	return nil
}

// evictForNode selects up to Z stash blocks whose leaf passes through node,
// in address order, so equal seeds make equal picks.
func (c *Client) evictForNode(node backend.NodeID) []*backend.Block {
	level := node.Level()
	var out []*backend.Block
	for _, b := range c.stash.Sorted() {
		if len(out) >= c.p.Z {
			break
		}
		if c.hasPinned && b.Addr == c.pinned {
			continue
		}
		if backend.NodeAt(level, b.Leaf, c.p.Levels) == node {
			out = append(out, b)
			c.stash.Remove(b.Addr)
		}
	}
	return out
}

// evictPath performs the periodic full-path eviction in
// reverse-lexicographic leaf order.
func (c *Client) evictPath() error {
	c.stats.Evictions.Inc()
	leaf := reverseBits(c.evictLeaf, c.p.Levels)
	c.evictLeaf = (c.evictLeaf + 1) % c.p.NumLeaves()

	nodes := backend.PathNodes(leaf, c.p.Levels)
	// Drain every bucket on the path, deepest first.
	for i := len(nodes) - 1; i >= 0; i-- {
		m, err := c.readMeta(nodes[i])
		if err != nil {
			return err
		}
		if err := c.drainBucket(nodes[i], m); err != nil {
			return err
		}
	}
	// Rewrite deepest-first so blocks go as deep as possible.
	for i := len(nodes) - 1; i >= 0; i-- {
		c.initBucket(nodes[i], c.evictForNode(nodes[i]))
	}
	return nil
}

// reverseBits reverses the low n bits of v (the reverse-lexicographic
// eviction order of the Ring ORAM paper).
func reverseBits(v uint64, n int) uint64 {
	var out uint64
	for i := 0; i < n; i++ {
		out = out<<1 | (v>>uint(i))&1
	}
	return out
}
