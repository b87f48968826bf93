package oram

import (
	"fmt"

	"doram/internal/oram/backend"
	"doram/internal/xrand"
)

// Op selects the access type.
type Op int

// Access operations.
const (
	OpRead Op = iota
	OpWrite
)

// Trace records which tree nodes one access touched in untrusted memory.
// The timing simulator converts these into DRAM transactions; nodes inside
// the top cache never appear.
type Trace struct {
	Leaf       uint64
	ReadNodes  []backend.NodeID // root-to-leaf order
	WriteNodes []backend.NodeID // leaf-to-root order (write-back direction)
}

// Client is a functional Path ORAM controller: it stores real data in
// encrypted buckets, maintains the stash and position map, and returns the
// memory-access trace of every operation.
type Client struct {
	p     Params
	pos   backend.PositionMap
	stash *backend.Stash
	store backend.Storage
	enc   backend.Encryptor
	evict backend.EvictionStrategy

	versions []uint64           // per-node write counters (encryption nonces)
	top      [][]*backend.Block // plaintext buckets for the cached top levels

	// free recycles the blocks sealed into uncached buckets, with their
	// data buffers, for the branchy path's bucket decodes (empty in
	// constant-time mode).
	free backend.FreeBlocks

	// Per-path scratch, reused by every path read and write-back. imgs
	// holds one bucket image per uncached level (nil above), with the
	// capacity to be sealed in place, so a sealed image stays valid until
	// the path's Merkle update; a path read leaves each level's plaintext
	// there until it is decoded. decoded holds one bucket's decoded blocks
	// on their way into the stash.
	nodes   []backend.NodeID
	plains  [][]byte
	imgs    [][]byte
	decoded []*backend.Block

	// Merkle only: cts is the path's ciphertexts as read or as written,
	// and ctBufs holds per-level copies of the read ones, taken before
	// Open consumes the originals.
	merkle *Merkle // optional hash-tree integrity (nil = disabled)
	cts    [][]byte
	ctBufs [][]byte

	// Constant-time mode: stash serves and bucket decodes run branch-free
	// (backend/consttime.go), so secret block contents never influence the
	// controller's instruction stream. ctOps counts the slots scanned.
	ct    bool
	ctOps uint64

	// Eviction accounting for the ablation sweep.
	evictedBlocks  uint64 // blocks moved stash -> tree by write-backs
	extraEvictions uint64 // extra whole-path evictions the strategy scheduled

	// Stash-pressure relief: when occupancy reaches pressureThreshold, up
	// to pressureMax dummy accesses run before the next real access so the
	// protocol degrades (extra dummies) instead of failing with
	// ErrStashOverflow.
	pressureThreshold int
	pressureMax       int

	// Integrity-failure recovery (bounded re-read retries before alarm).
	rec      RecoveryConfig
	recStats RecoveryStats

	rng *xrand.Rand

	accesses uint64
}

// ClientOptions selects implementations for the client's pluggable seams.
// Zero values reproduce the historical behaviour: dense trusted position
// map, AES-CTR (+HMAC when WithMAC) bucket crypto, level-by-level greedy
// eviction, branchy (fast) serve path.
type ClientOptions struct {
	// Storage is the untrusted bucket store (required).
	Storage backend.Storage
	// Position supplies the position map; nil falls back to a dense
	// trusted FlatMap — the hook the recursive construction uses to store
	// one ORAM's map inside another.
	Position backend.PositionMap
	// Encryptor overrides the bucket crypto; nil builds the default
	// ctr-hmac scheme from Key and WithMAC.
	Encryptor backend.Encryptor
	// Key is the 16-byte AES key for the default encryptor (ignored when
	// Encryptor is set).
	Key []byte
	// WithMAC adds authentication tags to the default encryptor.
	WithMAC bool
	// Eviction overrides the write-back strategy; nil means LevelByLevel.
	Eviction backend.EvictionStrategy
	// ConstantTime routes stash serves and bucket decodes through the
	// branch-free primitives in backend/consttime.go.
	ConstantTime bool
	// Seed drives all remapping randomness, making runs reproducible.
	Seed uint64
}

// NewClient builds a functional Path ORAM over store with a dense, trusted
// position map. The key encrypts buckets (16 bytes); withMAC adds
// integrity tags. The seed drives all remapping randomness, making runs
// reproducible.
func NewClient(p Params, store backend.Storage, key []byte, withMAC bool, seed uint64) (*Client, error) {
	return NewClientWithMap(p, store, key, withMAC, seed, nil)
}

// NewClientWithMap builds a client over an externally supplied position
// map. A nil pos falls back to a dense trusted map.
func NewClientWithMap(p Params, store backend.Storage, key []byte, withMAC bool, seed uint64, pos backend.PositionMap) (*Client, error) {
	return NewClientWithOptions(p, ClientOptions{
		Storage: store, Position: pos, Key: key, WithMAC: withMAC, Seed: seed})
}

// NewClientWithOptions builds a client with explicit backend selections.
func NewClientWithOptions(p Params, o ClientOptions) (*Client, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if o.Storage == nil {
		return nil, fmt.Errorf("oram: ClientOptions.Storage is required")
	}
	enc := o.Encryptor
	if enc == nil {
		var err error
		enc, err = backend.NewCTRHMACEncryptor(o.Key, o.WithMAC)
		if err != nil {
			return nil, err
		}
	}
	pos := o.Position
	if pos == nil {
		pos = backend.NewFlatMap(p.MaxBlocks())
	}
	evict := o.Eviction
	if evict == nil {
		evict = &backend.LevelByLevel{}
	}
	topNodes := uint64(1)<<uint(p.TopCacheLevels) - 1
	c := &Client{
		p:        p,
		pos:      pos,
		stash:    backend.NewStash(p.StashCapacity),
		store:    o.Storage,
		enc:      enc,
		evict:    evict,
		ct:       o.ConstantTime,
		versions: make([]uint64, p.NumNodes()),
		top:      make([][]*backend.Block, topNodes),
		nodes:    make([]backend.NodeID, p.Levels+1),
		plains:   make([][]byte, p.Levels+1),
		rec:      DefaultRecoveryConfig(),
		rng:      xrand.New(o.Seed),
	}
	c.imgs = c.levelBuffers(backend.BucketBytes(p.Z, p.BlockSize))
	// Pressure relief engages at 90% occupancy by default — far above any
	// healthy workload's high-water mark, so it only changes behaviour
	// when overflow is otherwise imminent.
	c.pressureThreshold = p.StashCapacity * 9 / 10
	c.pressureMax = 4
	return c, nil
}

// levelBuffers returns one buffer of length n per uncached level (nil for
// the cached ones), each with room for the sealed image.
func (c *Client) levelBuffers(n int) [][]byte {
	bufs := make([][]byte, c.p.Levels+1)
	for level := c.p.TopCacheLevels; level < len(bufs); level++ {
		bufs[level] = make([]byte, n, c.enc.SealedBytes(backend.BucketBytes(c.p.Z, c.p.BlockSize)))
	}
	return bufs
}

// Params returns the instance parameters.
func (c *Client) Params() Params { return c.p }

// StashLen returns the current stash occupancy.
func (c *Client) StashLen() int { return c.stash.Len() }

// StashMax returns the stash high-water mark.
func (c *Client) StashMax() int { return c.stash.MaxSeen() }

// Accesses returns the number of accesses performed (including dummies).
func (c *Client) Accesses() uint64 { return c.accesses }

// EvictionName returns the active eviction strategy's registry name.
func (c *Client) EvictionName() string { return c.evict.Name() }

// EncryptorName returns the active bucket encryptor's registry name.
func (c *Client) EncryptorName() string { return c.enc.Name() }

// BlocksEvicted returns the total blocks moved from the stash into tree
// buckets by write-backs (including top-cache placements).
func (c *Client) BlocksEvicted() uint64 { return c.evictedBlocks }

// ExtraEvictionPaths returns how many strategy-scheduled extra eviction
// paths have run (nonzero only for multi-path strategies).
func (c *Client) ExtraEvictionPaths() uint64 { return c.extraEvictions }

// ConstantTime reports whether the branch-free serve path is active.
func (c *Client) ConstantTime() bool { return c.ct }

// CTOps returns the stash slots scanned by constant-time serves — equal
// traffic for equal access sequences regardless of stored values, which
// the constant-time tests assert.
func (c *Client) CTOps() uint64 { return c.ctOps }

// PositionOf exposes the current leaf of addr for invariant tests.
func (c *Client) PositionOf(addr uint64) uint64 { return c.pos.Get(addr) }

// Access reads or writes the logical block addr. For OpWrite, data is the
// new content (copied; may be shorter than BlockSize). For OpRead the
// block's content is returned. Accessing an address for the first time
// implicitly allocates it (zero-filled).
func (c *Client) Access(op Op, addr uint64, data []byte) ([]byte, Trace, error) {
	if addr >= c.p.MaxBlocks() {
		return nil, Trace{}, fmt.Errorf("oram: address %d beyond capacity %d", addr, c.p.MaxBlocks())
	}
	if len(data) > c.p.BlockSize {
		return nil, Trace{}, fmt.Errorf("oram: data %d bytes exceeds block size %d", len(data), c.p.BlockSize)
	}
	if err := c.relieveStashPressure(); err != nil {
		return nil, Trace{}, err
	}
	leaf := c.pos.Get(addr)
	if leaf == backend.InvalidPath {
		leaf = c.rng.Uint64n(c.p.NumLeaves())
		c.pos.Set(addr, leaf)
	}

	tr, err := c.readPath(leaf)
	if err != nil {
		return nil, Trace{}, err
	}

	// Serve the request from the stash (the path read moved the block there
	// unless this is its first touch). The map lookup locates the slot by
	// its public address; in constant-time mode the data transfer itself
	// runs branch-free over every stashed block.
	b := c.stash.Get(addr)
	if b == nil {
		b = &backend.Block{Addr: addr, Data: make([]byte, c.p.BlockSize)}
		if err := c.stash.Put(b); err != nil {
			return nil, Trace{}, err
		}
	}
	var out []byte
	if c.ct {
		buf := make([]byte, c.p.BlockSize)
		var scanned int
		if op == OpWrite {
			copy(buf, data)
			_, scanned = backend.CTStoreStash(c.stash, addr, buf)
		} else {
			_, scanned = backend.CTScanStash(c.stash, addr, buf)
		}
		c.ctOps += uint64(scanned)
		out = buf
	} else {
		if op == OpWrite {
			copy(b.Data, data)
			for i := len(data); i < len(b.Data); i++ {
				b.Data[i] = 0
			}
		}
		out = append([]byte(nil), b.Data...)
	}

	// Remap to a fresh uniformly random path.
	newLeaf := c.rng.Uint64n(c.p.NumLeaves())
	c.pos.Set(addr, newLeaf)
	b.Leaf = newLeaf

	if err := c.writePath(leaf, &tr); err != nil {
		return nil, Trace{}, err
	}
	if err := c.extraPaths(&tr); err != nil {
		return nil, Trace{}, err
	}
	c.accesses++
	return out, tr, nil
}

// SetRecovery replaces the integrity-failure recovery policy. A
// MaxRetries of 0 restores fail-fast behaviour (first failure surfaces
// directly, no alarm escalation).
func (c *Client) SetRecovery(cfg RecoveryConfig) { c.rec = cfg }

// Recovery returns the active recovery policy.
func (c *Client) Recovery() RecoveryConfig { return c.rec }

// RecoveryStats returns the fault-recovery counters accumulated so far.
func (c *Client) RecoveryStats() RecoveryStats { return c.recStats }

// SetStashPressureRelief reconfigures graceful degradation under stash
// pressure: when occupancy reaches threshold at the start of an access,
// up to maxPerAccess dummy evictions run first to drain it. A threshold
// of 0 disables the mechanism (restoring hard ErrStashOverflow behaviour
// at capacity). The default is 90% of StashCapacity with 4 evictions.
func (c *Client) SetStashPressureRelief(threshold, maxPerAccess int) {
	c.pressureThreshold = threshold
	c.pressureMax = maxPerAccess
}

// relieveStashPressure issues dummy paths while the stash sits at or above
// the pressure threshold. These are protocol-internal and do not count as
// accesses.
func (c *Client) relieveStashPressure() error {
	if c.pressureThreshold <= 0 {
		return nil
	}
	for i := 0; i < c.pressureMax && c.stash.Len() >= c.pressureThreshold; i++ {
		if _, err := c.dummyPath(); err != nil {
			return err
		}
		c.recStats.PressureEvictions++
	}
	return nil
}

// DummyAccess performs a full path read+write on a uniformly random leaf
// without serving any block. D-ORAM issues these to keep the request rate
// fixed (timing-channel protection, §III-B).
func (c *Client) DummyAccess() (Trace, error) {
	tr, err := c.dummyPath()
	if err != nil {
		return Trace{}, err
	}
	c.accesses++
	return tr, nil
}

// dummyPath reads and writes back the path to a uniformly random leaf,
// then the strategy's extra eviction paths, exactly as a real access
// does, so a dummy's trace has a real access's shape.
func (c *Client) dummyPath() (Trace, error) {
	leaf := c.rng.Uint64n(c.p.NumLeaves())
	tr, err := c.readPath(leaf)
	if err != nil {
		return Trace{}, err
	}
	if err := c.writePath(leaf, &tr); err != nil {
		return Trace{}, err
	}
	if err := c.extraPaths(&tr); err != nil {
		return Trace{}, err
	}
	return tr, nil
}

// extraPaths runs the strategy-scheduled extra eviction paths
// (deterministic-two-path): a full read+write of each, merged into tr so
// the timing plane charges the added bandwidth to this access.
func (c *Client) extraPaths(tr *Trace) error {
	for _, el := range c.evict.ExtraPaths(c.p.Levels) {
		etr, err := c.readPath(el)
		if err != nil {
			return err
		}
		if err := c.writePath(el, &etr); err != nil {
			return err
		}
		tr.ReadNodes = append(tr.ReadNodes, etr.ReadNodes...)
		tr.WriteNodes = append(tr.WriteNodes, etr.WriteNodes...)
		c.extraEvictions++
	}
	return nil
}

// EnableMerkle attaches hash-tree integrity: every path read is verified
// against a trusted root before use, and every write-back refreshes the
// path's hashes. It must be called before any access, while the tree is
// empty.
func (c *Client) EnableMerkle() error {
	if c.accesses != 0 {
		return fmt.Errorf("oram: EnableMerkle must precede the first access")
	}
	c.merkle = NewMerkle(c.p)
	c.cts = make([][]byte, c.p.Levels+1)
	c.ctBufs = c.levelBuffers(0)
	return nil
}

// readPath moves every block on the path to leaf into the stash and
// records the memory reads. It runs in two phases: fetch-and-verify first
// (with bounded re-read recovery on integrity failures), then commit into
// the stash — so a tampered path never leaks partially into client state.
func (c *Client) readPath(leaf uint64) (Trace, error) {
	n := c.p.NodesPerAccess()
	tr := Trace{Leaf: leaf, ReadNodes: make([]backend.NodeID, 0, n), WriteNodes: make([]backend.NodeID, 0, n)}
	nodes := c.nodes
	for level := range nodes {
		nodes[level] = backend.NodeAt(level, leaf, c.p.Levels)
	}

	// Phase 1: fetch ciphertexts and authenticate. A Merkle failure
	// localizes only to the path, so recovery there re-fetches the whole
	// path (each attempt MAC-verifies again too).
	for pathAttempt := 0; ; pathAttempt++ {
		if err := c.fetchPath(nodes); err != nil {
			return Trace{}, err
		}
		if c.merkle == nil {
			break
		}
		err := c.merkle.VerifyPath(leaf, c.cts)
		if err == nil {
			break
		}
		leafNode := nodes[len(nodes)-1]
		if c.rec.MaxRetries == 0 {
			return Trace{}, backend.ErrIntegrity{Node: leafNode, Level: -1, Mechanism: backend.MechMerkle}
		}
		if pathAttempt >= c.rec.MaxRetries {
			c.recStats.Alarms++
			return Trace{}, ErrSecurityAlarm{Node: leafNode, Mechanism: backend.MechMerkle,
				Attempts: pathAttempt + 1}
		}
		c.recStats.PathRetries++
		c.recStats.RecoveryCycles += c.rec.RetryCostCycles * uint64(len(nodes)-c.p.TopCacheLevels)
	}

	// Phase 2: commit. Drain the cached top levels and move every
	// authenticated path block into the stash.
	for level, node := range nodes {
		var blocks []*backend.Block
		if level < c.p.TopCacheLevels {
			blocks = c.top[node]
			c.top[node] = blocks[:0]
		} else {
			tr.ReadNodes = append(tr.ReadNodes, node)
			plain := c.plains[level]
			if plain == nil {
				continue // never written: empty bucket
			}
			if c.ct {
				blocks = backend.DecodeBucketCT(plain, c.p.Z, c.p.BlockSize)
			} else {
				c.decoded = backend.DecodeBucket(c.decoded[:0], plain, c.p.Z, c.p.BlockSize, &c.free)
				blocks = c.decoded
			}
		}
		for _, b := range blocks {
			if err := c.stash.Put(b); err != nil {
				return Trace{}, err
			}
		}
	}
	return tr, nil
}

// fetchPath reads and MAC-verifies every non-cached bucket on the path,
// filling c.plains (decrypted images) and, under Merkle, c.cts (the
// verified ciphertexts). Cached top levels and never-written buckets get
// nil entries.
func (c *Client) fetchPath(nodes []backend.NodeID) error {
	for level, node := range nodes {
		var plain, ct []byte
		if level >= c.p.TopCacheLevels {
			var err error
			if plain, ct, err = c.openWithRetry(node, level); err != nil {
				return err
			}
		}
		c.plains[level] = plain
		if c.merkle != nil {
			c.cts[level] = ct
		}
	}
	return nil
}

// openWithRetry reads node from storage and authenticates it, re-reading
// up to MaxRetries times on a MAC failure. Each retry charges
// RetryCostCycles; exhausting the budget escalates to ErrSecurityAlarm.
// A nil return (no error) means the bucket was never written. The store's
// read buffer lasts only until its next read, so the client is done with
// it here: under Merkle, ct is a copy of the image in the level's
// ciphertext buffer, taken before Open consumes the image, since the tree
// hashes ciphertext; plain is a copy of the plaintext in the level's
// bucket image, which the write-back overwrites only after the
// path's blocks are decoded.
func (c *Client) openWithRetry(node backend.NodeID, level int) (plain, ct []byte, err error) {
	for attempt := 0; ; attempt++ {
		sealed := c.store.ReadBucket(node)
		if sealed == nil {
			return nil, nil, nil
		}
		if c.merkle != nil {
			ct = append(c.ctBufs[level][:0], sealed...)
			c.ctBufs[level] = ct
		}
		plain, err = c.enc.Open(node, c.versions[node], sealed)
		if err == nil {
			return append(c.imgs[level][:0], plain...), ct, nil
		}
		if c.rec.MaxRetries == 0 {
			return nil, nil, err
		}
		if attempt >= c.rec.MaxRetries {
			c.recStats.Alarms++
			return nil, nil, ErrSecurityAlarm{Node: node, Mechanism: backend.MechMAC,
				Attempts: attempt + 1}
		}
		c.recStats.Retries++
		c.recStats.RecoveryCycles += c.rec.RetryCostCycles
	}
}

// writePath evicts stash blocks back onto the path (leaf-first, so greedy
// strategies realize deepest placement), re-encrypting every bucket, and
// records the writes. Which eligible blocks each bucket receives is the
// eviction strategy's choice.
func (c *Client) writePath(leaf uint64, tr *Trace) error {
	for level := c.p.Levels; level >= 0; level-- {
		node := backend.NodeAt(level, leaf, c.p.Levels)
		blocks := c.evict.PlanLevel(c.stash, leaf, level, c.p.Levels, c.p.Z)
		c.evictedBlocks += uint64(len(blocks))
		var sealed []byte
		if level < c.p.TopCacheLevels {
			// The plan lasts only until the next call; the bucket keeps
			// its slice's capacity from one write-back to the next.
			c.top[node] = append(c.top[node][:0], blocks...)
		} else {
			tr.WriteNodes = append(tr.WriteNodes, node)
			c.versions[node]++
			backend.EncodeBucketInto(c.imgs[level], blocks, c.p.Z, c.p.BlockSize)
			if !c.ct {
				c.free = append(c.free, blocks...)
			}
			sealed = c.enc.Seal(node, c.versions[node], c.imgs[level])
			c.store.WriteBucket(node, sealed)
		}
		if c.merkle != nil {
			c.cts[level] = sealed
		}
	}
	if c.merkle != nil {
		return c.merkle.UpdatePath(leaf, c.cts)
	}
	return nil
}
