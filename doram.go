// Package doram is a from-scratch reproduction of "D-ORAM: Path-ORAM
// Delegation for Low Execution Interference on Cloud Servers with
// Untrusted Memory" (Wang, Zhang, Yang — HPCA 2018).
//
// The package exposes three layers:
//
//   - A functional Path ORAM (ORAM): real encrypted storage with a stash,
//     position map and per-access reshuffling, suitable for protecting
//     access patterns of an in-memory block store.
//   - A cycle-level co-run simulator (Simulate): trace-driven ROB cores
//     over a DDR3-1600 memory system under the paper's protection schemes
//     (Path ORAM baseline, secure-memory model, and D-ORAM with its +k
//     tree split and /c secure-channel sharing).
//   - The paper's evaluation (RunExperiment): regenerates every table and
//     figure of §V.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// results against the paper's numbers.
package doram

import (
	"fmt"

	"doram/internal/faults"
	"doram/internal/oram"
	"doram/internal/oram/backend"
)

// ORAMConfig configures a functional Path ORAM instance.
type ORAMConfig struct {
	// Levels is L: the tree has L+1 levels and 2^L leaves. A functional
	// instance allocates O(2^L * Z * BlockSize) bytes; L in [10, 20] is
	// practical in memory. The paper's hardware configuration is L=23.
	Levels int
	// Z is the bucket size in blocks (paper: 4).
	Z int
	// BlockSize is the payload bytes per block (paper: 64, one cache line).
	BlockSize int
	// TopCacheLevels caches the top of the tree in the controller
	// (paper: 3).
	TopCacheLevels int
	// StashCapacity bounds the stash (a few hundred suffices at 50% load).
	StashCapacity int
	// Key is the 16-byte AES key for bucket encryption.
	Key []byte
	// WithMAC adds per-bucket authentication tags (trusted version
	// counters defeat replay).
	WithMAC bool
	// MerkleIntegrity protects the tree with a hash tree instead: only
	// the root hash needs trusted storage, the construction a real
	// silicon-constrained delegator would use.
	MerkleIntegrity bool
	// RecursivePositionMap stores the position map itself in smaller
	// ORAMs (Stefanov et al.'s recursion) instead of trusted memory;
	// each access then costs extra map-ORAM accesses.
	RecursivePositionMap bool
	// Eviction selects the write-back strategy by registry name:
	// "level-by-level" (default), "greedy-by-depth", or
	// "deterministic-two-path" (one extra deterministic eviction path per
	// access). Empty means the default.
	Eviction string
	// Encryptor selects the bucket crypto by registry name: "ctr-hmac"
	// (default; WithMAC controls its tags), "aes-gcm" (always
	// authenticated, random nonces), or "noop" (plaintext, tests only).
	// Empty means the default.
	Encryptor string
	// ConstantTime routes stash serves and bucket decodes through
	// branch-free select primitives, so secret block contents never steer
	// the controller's instruction stream (TEE-style deployment).
	ConstantTime bool
	// Seed drives remapping; runs with equal seeds are identical.
	Seed uint64
	// Faults, when non-nil, schedules a deterministic fault-injection
	// campaign against the instance's untrusted storage (chaos testing).
	// Enable WithMAC or MerkleIntegrity so the faults are detectable; the
	// client then heals transient faults by re-reading and raises a
	// security alarm on persistent tampering.
	Faults *FaultPlan
}

// FaultPlan configures a seeded storage fault campaign. The same plan
// against the same ORAM seed reproduces the identical campaign.
type FaultPlan struct {
	// Seed drives the schedule and the fault payloads.
	Seed uint64
	// Event counts by kind: single-bit corruptions, stale-image replays,
	// silently dropped write-backs, and whole-bucket garbage.
	BitFlips       int
	Replays        int
	DroppedWrites  int
	GarbageBuckets int
	// PersistentFraction is the probability that a scheduled read-side
	// fault tampers with the stored image (so re-reads cannot heal it);
	// dropped writes are always persistent.
	PersistentFraction float64
	// Horizon is the bucket-operation window the events are scheduled
	// over. 0 uses a default of 4096 operations (one operation ≈ one
	// bucket read or write; a Levels=16, TopCacheLevels=3 access performs
	// 14 of each).
	Horizon uint64
}

// FaultReport summarizes a fault campaign: what the adversary injected and
// what the client's integrity machinery did about it.
type FaultReport struct {
	// Injected counts delivered faults by kind; Persistent of those
	// tampered with the stored image. Deferred events found no applicable
	// target (e.g. a replay of a never-rewritten bucket) and were dropped.
	BitFlips       uint64
	Replays        uint64
	DroppedWrites  uint64
	GarbageBuckets uint64
	Persistent     uint64
	Deferred       uint64

	// Recovery activity: bucket re-reads after MAC failures, whole-path
	// re-fetches after Merkle failures, escalations to a security alarm,
	// dummy accesses issued to relieve stash pressure, and the simulated
	// cycle cost of all integrity retries.
	Retries           uint64
	PathRetries       uint64
	Alarms            uint64
	PressureEvictions uint64
	RecoveryCycles    uint64
}

// Injected returns the total faults delivered.
func (r FaultReport) Injected() uint64 {
	return r.BitFlips + r.Replays + r.DroppedWrites + r.GarbageBuckets
}

// DefaultORAMConfig returns a 64 MB-scale functional instance with the
// paper's Z, block size and tree-top caching.
func DefaultORAMConfig() ORAMConfig {
	return ORAMConfig{
		Levels:         16,
		Z:              4,
		BlockSize:      64,
		TopCacheLevels: 3,
		StashCapacity:  400,
		Key:            []byte("doram-default-k!"),
		WithMAC:        true,
		Seed:           1,
	}
}

// EvictionStrategies lists the registered eviction-strategy names
// accepted by ORAMConfig.Eviction, the job spec's Params.Eviction (which
// SimConfig embeds) and the CLIs' -eviction flags, sorted. The empty name
// selects the default (level-by-level).
func EvictionStrategies() []string { return backend.Evictions() }

// BucketEncryptors lists the registered bucket-encryptor names accepted by
// ORAMConfig.Encryptor and doramsim's -encryptor flag (for -chaos),
// sorted. The empty name selects the default (ctr-hmac).
func BucketEncryptors() []string { return backend.Encryptors() }

// ORAM is a functional Path ORAM block store: every Read or Write touches
// one full tree path and remaps the block, so the physical access sequence
// is independent of the logical one.
type ORAM struct {
	client *oram.Client
	recmap *oram.RecursiveMap
	faulty *faults.FaultyStorage // non-nil when a FaultPlan is active
}

// NewORAM builds a functional Path ORAM with in-memory untrusted storage.
func NewORAM(cfg ORAMConfig) (*ORAM, error) {
	p := oram.Params{
		Levels:         cfg.Levels,
		Z:              cfg.Z,
		BlockSize:      cfg.BlockSize,
		TopCacheLevels: cfg.TopCacheLevels,
		StashCapacity:  cfg.StashCapacity,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	o := &ORAM{}
	var pos backend.PositionMap
	if cfg.RecursivePositionMap {
		rmCfg := oram.DefaultRecursiveMapConfig(p.MaxBlocks())
		rmCfg.Seed = cfg.Seed ^ 0xacc0
		rm, err := oram.NewRecursiveMap(rmCfg)
		if err != nil {
			return nil, err
		}
		o.recmap = rm
		pos = rm
	}
	var store backend.Storage = backend.NewMemStorage(p.NumNodes())
	if cfg.Faults != nil {
		horizon := cfg.Faults.Horizon
		if horizon == 0 {
			horizon = 4096
		}
		plan, err := faults.NewPlan(faults.PlanConfig{
			Seed:               cfg.Faults.Seed,
			BitFlips:           cfg.Faults.BitFlips,
			Replays:            cfg.Faults.Replays,
			DroppedWrites:      cfg.Faults.DroppedWrites,
			Garbage:            cfg.Faults.GarbageBuckets,
			PersistentFraction: cfg.Faults.PersistentFraction,
			Horizon:            horizon,
		})
		if err != nil {
			return nil, err
		}
		o.faulty = faults.WrapStorage(store, plan)
		store = o.faulty
	}
	evict, err := backend.NewEviction(cfg.Eviction)
	if err != nil {
		return nil, err
	}
	enc, err := backend.NewEncryptor(cfg.Encryptor, cfg.Key, cfg.WithMAC)
	if err != nil {
		return nil, err
	}
	client, err := oram.NewClientWithOptions(p, oram.ClientOptions{
		Storage:      store,
		Position:     pos,
		Encryptor:    enc,
		Eviction:     evict,
		ConstantTime: cfg.ConstantTime,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	if cfg.MerkleIntegrity {
		if err := client.EnableMerkle(); err != nil {
			return nil, err
		}
	}
	o.client = client
	return o, nil
}

// PositionMapDepth returns the recursion depth of the position map (0 when
// the map is held in trusted memory).
func (o *ORAM) PositionMapDepth() int {
	if o.recmap == nil {
		return 0
	}
	return o.recmap.Depth()
}

// PositionMapAccesses returns the accesses performed by the recursive
// position map's ORAMs (0 without recursion).
func (o *ORAM) PositionMapAccesses() uint64 {
	if o.recmap == nil {
		return 0
	}
	return o.recmap.MapAccesses()
}

// Capacity returns the number of logical blocks the instance can hold at
// the protocol's 50% space efficiency.
func (o *ORAM) Capacity() uint64 { return o.client.Params().MaxBlocks() }

// BlockSize returns the payload bytes per block.
func (o *ORAM) BlockSize() int { return o.client.Params().BlockSize }

// Read returns the content of the logical block addr. Unwritten blocks
// read as zeros.
func (o *ORAM) Read(addr uint64) ([]byte, error) {
	data, _, err := o.client.Access(oram.OpRead, addr, nil)
	return data, err
}

// Write stores data (at most BlockSize bytes, zero-padded) in block addr.
func (o *ORAM) Write(addr uint64, data []byte) error {
	_, _, err := o.client.Access(oram.OpWrite, addr, data)
	return err
}

// Accesses returns the number of ORAM accesses performed.
func (o *ORAM) Accesses() uint64 { return o.client.Accesses() }

// StashHighWater returns the stash's peak occupancy — the protocol-failure
// headroom metric.
func (o *ORAM) StashHighWater() int { return o.client.StashMax() }

// Eviction returns the active eviction strategy's registry name.
func (o *ORAM) Eviction() string { return o.client.EvictionName() }

// Encryptor returns the active bucket encryptor's registry name.
func (o *ORAM) Encryptor() string { return o.client.EncryptorName() }

// ExtraEvictionPaths returns how many strategy-scheduled extra eviction
// paths have run (nonzero only for deterministic-two-path).
func (o *ORAM) ExtraEvictionPaths() uint64 { return o.client.ExtraEvictionPaths() }

// BlocksPerAccess returns the memory blocks transferred per phase of one
// access (the bandwidth amplification the paper's motivation quantifies).
func (o *ORAM) BlocksPerAccess() int { return o.client.Params().BlocksPerAccess() }

// FaultReport returns the campaign and recovery counters. Without a
// FaultPlan the injection side is all zero but the recovery side still
// reports organic activity (e.g. stash-pressure evictions).
func (o *ORAM) FaultReport() FaultReport {
	rec := o.client.RecoveryStats()
	r := FaultReport{
		Retries:           rec.Retries,
		PathRetries:       rec.PathRetries,
		Alarms:            rec.Alarms,
		PressureEvictions: rec.PressureEvictions,
		RecoveryCycles:    rec.RecoveryCycles,
	}
	if o.faulty != nil {
		st := o.faulty.Stats()
		r.BitFlips = st.Injected[faults.BitFlip]
		r.Replays = st.Injected[faults.Replay]
		r.DroppedWrites = st.Injected[faults.DroppedWrite]
		r.GarbageBuckets = st.Injected[faults.Garbage]
		r.Persistent = st.Persistent
		r.Deferred = st.Deferred
	}
	return r
}

// SetRecovery tunes integrity-failure recovery: maxRetries bounds the
// re-reads before a persistent failure escalates to a security alarm
// (0 = fail fast on the first failure), retryCostCycles is the simulated
// cost charged per re-read.
func (o *ORAM) SetRecovery(maxRetries int, retryCostCycles uint64) {
	o.client.SetRecovery(oram.RecoveryConfig{MaxRetries: maxRetries, RetryCostCycles: retryCostCycles})
}

func init() {
	// Guard the public default against drift in internal validation.
	if err := func() error {
		cfg := DefaultORAMConfig()
		p := oram.Params{Levels: cfg.Levels, Z: cfg.Z, BlockSize: cfg.BlockSize,
			TopCacheLevels: cfg.TopCacheLevels, StashCapacity: cfg.StashCapacity}
		return p.Validate()
	}(); err != nil {
		panic(fmt.Sprintf("doram: invalid default config: %v", err))
	}
}
