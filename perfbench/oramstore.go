package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"

	"doram"
	"doram/internal/oram"
	"doram/internal/oram/backend"
	"doram/internal/xrand"
)

// oram-store is one closed-loop client of the functional Path ORAM
// (doram.ORAM with DefaultORAMConfig: L=16, ctr-hmac with MACs) doing a
// 50/50 read/write mix over a prefilled working set. Every read is checked
// against a shadow map.

const (
	oramWorkingSet = 4096 // blocks prefilled during set-up, then accessed
	oramDigestOps  = 2000 // operations covered by the pinned digest
	oramTraceOps   = 15000
)

// oramPinned maps a seed to the digest of the first oramDigestOps
// operations' reads and the stash high-water mark after them.
var oramPinned = map[uint64]string{
	1: "cf5f898e2a834112b1b268f8a56da6871b448feaa03da49b4e6f238e25d12755",
}

// oramPayload is the content written by operation n (n < oramWorkingSet
// is the prefill of block n).
func oramPayload(seed, n uint64) []byte {
	rng := xrand.New(seed*0x9e3779b97f4a7c15 + n)
	b := make([]byte, 64)
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], rng.Uint64())
	}
	return b
}

// blockStore is the part of the ORAM API the workload drives, satisfied
// both by doram.ORAM and by the instrumented client of the traced run.
type blockStore interface {
	Read(addr uint64) ([]byte, error)
	Write(addr uint64, data []byte) error
	StashHighWater() int
}

// oramLoad is the client's seeded operation stream with its shadow map of
// every block's expected content and the digest of its first operations.
type oramLoad struct {
	seed   uint64
	rng    *xrand.Rand
	shadow map[uint64][]byte
	ops    uint64
	h      []byte // digest input: reads of the first oramDigestOps ops
	digest string
}

func newORAMLoad(seed uint64) *oramLoad {
	return &oramLoad{seed: seed, rng: xrand.New(seed ^ 0x0a11ce), shadow: map[uint64][]byte{}}
}

// prefill writes every block of the working set once.
func (l *oramLoad) prefill(s blockStore) error {
	for a := uint64(0); a < oramWorkingSet; a++ {
		p := oramPayload(l.seed, a)
		if err := s.Write(a, p); err != nil {
			return fmt.Errorf("prefill block %d: %w", a, err)
		}
		l.shadow[a] = p
	}
	return nil
}

// step performs one operation and reports whether its output was right.
func (l *oramLoad) step(r *report, s blockStore) {
	addr := l.rng.Uint64n(oramWorkingSet)
	write := l.rng.Intn(2) == 0
	l.ops++
	r.attempted++
	if write {
		p := oramPayload(l.seed, oramWorkingSet+l.ops)
		if err := s.Write(addr, p); err != nil {
			r.failed++
			r.fail("op %d write %d: %v", l.ops, addr, err)
			return
		}
		l.shadow[addr] = p
	} else {
		got, err := s.Read(addr)
		if err != nil || !bytes.Equal(got[:64], l.shadow[addr]) {
			r.failed++
			r.fail("op %d read %d: wrong content (err %v)", l.ops, addr, err)
			return
		}
		if l.ops <= oramDigestOps {
			l.h = append(l.h, got[:8]...)
		}
	}
	if l.ops == oramDigestOps {
		l.h = fmt.Appendf(l.h, "stash %d", s.StashHighWater())
		sum := sha256.Sum256(l.h)
		l.digest = hex.EncodeToString(sum[:])
	}
}

// check compares the digest with the pinned one; a mismatch fails the
// operations it covers.
func (l *oramLoad) check(r *report) {
	if want, ok := oramPinned[l.seed]; ok && l.digest != want {
		r.failOps(oramDigestOps, "ORAM digest %s, pinned %s", l.digest, want)
	}
}

func oramConfig(seed uint64) doram.ORAMConfig {
	cfg := doram.DefaultORAMConfig()
	cfg.Seed = seed
	return cfg
}

// oramSetUp builds a store and prefills it.
func oramSetUp(seed uint64) (*doram.ORAM, *oramLoad, time.Duration, error) {
	t0 := time.Now()
	o, err := doram.NewORAM(oramConfig(seed))
	if err != nil {
		return nil, nil, 0, err
	}
	l := newORAMLoad(seed)
	if err := l.prefill(o); err != nil {
		return nil, nil, 0, err
	}
	return o, l, time.Since(t0), nil
}

func measureORAMStore(e env) (*report, error) {
	r := newReport()
	var setups []time.Duration
	var o *doram.ORAM
	var l *oramLoad
	for i := 0; i < 5; i++ {
		var d time.Duration
		var err error
		if o, l, d, err = oramSetUp(e.seed); err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}
	var lat []float64
	start := takeUsage()
	for l.ops < oramDigestOps || time.Since(start.wall) < e.seconds {
		t0 := time.Now()
		l.step(r, o)
		lat = append(lat, ms(time.Since(t0)))
	}
	use := since(start)
	l.check(r)
	fillEndToEnd(r, setups, lat, use.alloc, r.attempted)
	r.metrics["throughput_per_s"] = float64(l.ops) / use.wall.Seconds()
	return r, nil
}

func traceORAMStore(e env) (*report, error) {
	r := newReport()
	// run times every operation in every pass, so the passes differ only in
	// what they instrument.
	run := func(s blockStore, l *oramLoad) (wall time.Duration, lat []float64) {
		t0 := time.Now()
		for i := 0; i < oramTraceOps; i++ {
			t := time.Now()
			l.step(r, s)
			lat = append(lat, ms(time.Since(t)))
		}
		return time.Since(t0), lat
	}

	o, l, _, err := oramSetUp(e.seed)
	if err != nil {
		return nil, err
	}
	start := takeUsage()
	_, lat := run(o, l)
	plain := since(start)
	l.check(r)
	r.metrics["oram.p99_us"] = 1000 * quantile(lat, 0.99)
	r.metrics["experiments.cpu_util"] = plain.cpuUtil()
	r.metrics["go.gc_cpu_pct"] = plain.gcPct()

	if o, l, _, err = oramSetUp(e.seed); err != nil {
		return nil, err
	}
	if err := profile(r, func() error { run(o, l); return nil }); err != nil {
		return nil, err
	}

	ic, err := newInstrumentedORAM(oramConfig(e.seed))
	if err != nil {
		return nil, err
	}
	il := newORAMLoad(e.seed)
	if err := il.prefill(ic); err != nil {
		return nil, err
	}
	ic.reset()
	wall, _ := run(ic, il)
	il.check(r)
	r.metrics["trace.overhead_ratio"] = wall.Seconds() / plain.wall.Seconds()
	ic.fill(r)
	bypass(r, simLayer, componentLayer, serveLayer)
	return r, nil
}

// opTimer accumulates the calls to one backend method and their time.
type opTimer struct {
	n int64
	d time.Duration
}

func (t *opTimer) since(t0 time.Time) {
	t.n++
	t.d += time.Since(t0)
}

func (t *opTimer) ns() float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.d.Nanoseconds()) / float64(t.n)
}

// instrumentedORAM is the client doram.NewORAM builds for the same
// configuration, with every backend piece wrapped by a timer through
// oram.ClientOptions. The wrappers only time and forward.
type instrumentedORAM struct {
	*oram.Client
	read, write, seal, open, plan, posmap opTimer
	accesses0                             uint64 // accesses before timing began
}

func newInstrumentedORAM(cfg doram.ORAMConfig) (*instrumentedORAM, error) {
	p := oram.Params{Levels: cfg.Levels, Z: cfg.Z, BlockSize: cfg.BlockSize,
		TopCacheLevels: cfg.TopCacheLevels, StashCapacity: cfg.StashCapacity}
	evict, err := backend.NewEviction(cfg.Eviction)
	if err != nil {
		return nil, err
	}
	enc, err := backend.NewEncryptor(cfg.Encryptor, cfg.Key, cfg.WithMAC)
	if err != nil {
		return nil, err
	}
	o := &instrumentedORAM{}
	o.Client, err = oram.NewClientWithOptions(p, oram.ClientOptions{
		Storage:   timedStorage{backend.NewMemStorage(p.NumNodes()), o},
		Position:  timedPosMap{backend.NewFlatMap(p.MaxBlocks()), o},
		Encryptor: timedEncryptor{enc, o},
		Eviction:  timedEviction{evict, o},
		Seed:      cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return o, nil
}

func (o *instrumentedORAM) Read(addr uint64) ([]byte, error) {
	data, _, err := o.Access(oram.OpRead, addr, nil)
	return data, err
}

func (o *instrumentedORAM) Write(addr uint64, data []byte) error {
	_, _, err := o.Access(oram.OpWrite, addr, data)
	return err
}

func (o *instrumentedORAM) StashHighWater() int { return o.StashMax() }

// reset zeroes the timers so the prefill does not count.
func (o *instrumentedORAM) reset() {
	o.read, o.write, o.seal, o.open, o.plan, o.posmap = opTimer{}, opTimer{}, opTimer{}, opTimer{}, opTimer{}, opTimer{}
	o.accesses0 = o.Accesses()
}

func (o *instrumentedORAM) fill(r *report) {
	r.metrics["backend.storage_read_ns"] = o.read.ns()
	r.metrics["backend.storage_write_ns"] = o.write.ns()
	r.metrics["backend.seal_ns"] = o.seal.ns()
	r.metrics["backend.open_ns"] = o.open.ns()
	r.metrics["backend.evict_plan_ns"] = o.plan.ns()
	r.metrics["backend.posmap_ns"] = o.posmap.ns()
	r.metrics["backend.buckets_per_access"] = float64(o.read.n+o.write.n) / float64(o.Accesses()-o.accesses0)
	r.metrics["oram.stash_max"] = float64(o.StashMax())
}

type timedStorage struct {
	backend.Storage
	o *instrumentedORAM
}

func (s timedStorage) ReadBucket(n backend.NodeID) []byte {
	defer s.o.read.since(time.Now())
	return s.Storage.ReadBucket(n)
}

func (s timedStorage) WriteBucket(n backend.NodeID, buf []byte) {
	defer s.o.write.since(time.Now())
	s.Storage.WriteBucket(n, buf)
}

type timedEncryptor struct {
	backend.Encryptor
	o *instrumentedORAM
}

func (e timedEncryptor) Seal(n backend.NodeID, version uint64, plain []byte) []byte {
	defer e.o.seal.since(time.Now())
	return e.Encryptor.Seal(n, version, plain)
}

func (e timedEncryptor) Open(n backend.NodeID, version uint64, sealed []byte) ([]byte, error) {
	defer e.o.open.since(time.Now())
	return e.Encryptor.Open(n, version, sealed)
}

type timedEviction struct {
	backend.EvictionStrategy
	o *instrumentedORAM
}

func (e timedEviction) PlanLevel(s *backend.Stash, leaf uint64, level, levels, z int) []*backend.Block {
	defer e.o.plan.since(time.Now())
	return e.EvictionStrategy.PlanLevel(s, leaf, level, levels, z)
}

type timedPosMap struct {
	backend.PositionMap
	o *instrumentedORAM
}

func (m timedPosMap) Get(addr uint64) uint64 {
	defer m.o.posmap.since(time.Now())
	return m.PositionMap.Get(addr)
}

func (m timedPosMap) Set(addr, leaf uint64) {
	defer m.o.posmap.since(time.Now())
	m.PositionMap.Set(addr, leaf)
}
