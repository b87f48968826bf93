package faults

// The fault matrix: every fault kind the Plan can schedule, driven through
// a real Path ORAM client, must be detected by the matching integrity
// mechanism — bucket MAC (with trusted version counters), Merkle hash
// tree, or link frame checksum. Transient faults must heal through the
// client's bounded re-read recovery (at a nonzero simulated cycle cost);
// persistent tampering must escalate to a security alarm. Every campaign
// is reproducible from its seed.

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"doram/internal/bob"
	"doram/internal/oram"
	"doram/internal/oram/backend"
)

const (
	matrixSeed     = 0xd0ad
	warmupAccesses = 20
	totalAccesses  = 60
	campaignAddrs  = 40
)

func matrixParams() oram.Params {
	return oram.Params{Levels: 6, Z: 4, BlockSize: 64, TopCacheLevels: 2, StashCapacity: 400}
}

func matrixKey() []byte { return bytes.Repeat([]byte{0x42}, 16) }

// runCampaign drives a fixed, deterministic access pattern: alternating
// writes (payload = access index) and reads over campaignAddrs addresses.
// It stops at the first error — the detection point under injection.
func runCampaign(c *oram.Client, accesses int) error {
	for i := 0; i < accesses; i++ {
		addr := uint64(i) % campaignAddrs
		var err error
		if i%2 == 0 {
			_, _, err = c.Access(oram.OpWrite, addr, []byte{byte(i)})
		} else {
			_, _, err = c.Access(oram.OpRead, addr, nil)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// readInfo describes one bucket read observed by the probe run.
type readInfo struct {
	node      backend.NodeID
	populated bool // the bucket had an image to tamper with
	rewritten bool // the bucket had an older image to replay
}

// writeInfo describes one bucket write observed by the probe run.
type writeInfo struct {
	node  backend.NodeID
	first bool // first write to this bucket (not droppable)
}

// recorder is a transparent Storage wrapper logging, per operation index,
// what a fault scheduled there would find.
type recorder struct {
	inner  backend.Storage
	counts map[backend.NodeID]int
	reads  []readInfo
	writes []writeInfo
}

func (r *recorder) ReadBucket(node backend.NodeID) []byte {
	buf := r.inner.ReadBucket(node)
	r.reads = append(r.reads, readInfo{node: node, populated: buf != nil,
		rewritten: r.counts[node] >= 2})
	return buf
}

func (r *recorder) WriteBucket(node backend.NodeID, buf []byte) {
	r.writes = append(r.writes, writeInfo{node: node, first: r.counts[node] == 0})
	r.counts[node]++
	r.inner.WriteBucket(node, buf)
}

// probeCampaign replays the exact campaign fault-free and returns its
// read/write logs, from which tests pick fault injection points that are
// guaranteed to land on tamperable buckets.
func probeCampaign(t *testing.T, withMAC, withMerkle bool) ([]readInfo, []writeInfo) {
	t.Helper()
	p := matrixParams()
	rec := &recorder{inner: backend.NewMemStorage(p.NumNodes()), counts: map[backend.NodeID]int{}}
	c, err := oram.NewClient(p, rec, matrixKey(), withMAC, matrixSeed)
	if err != nil {
		t.Fatal(err)
	}
	if withMerkle {
		if err := c.EnableMerkle(); err != nil {
			t.Fatal(err)
		}
	}
	if err := runCampaign(c, totalAccesses); err != nil {
		t.Fatalf("probe campaign failed: %v", err)
	}
	return rec.reads, rec.writes
}

// pickRead returns the first read index at or after the warmup whose
// bucket satisfies the predicate.
func pickRead(t *testing.T, reads []readInfo, after int, ok func(readInfo) bool) uint64 {
	t.Helper()
	for i := after; i < len(reads); i++ {
		if ok(reads[i]) {
			return uint64(i)
		}
	}
	t.Fatal("probe found no suitable read to fault")
	return 0
}

// newMatrixClient builds the client under test over a FaultyStorage.
func newMatrixClient(t *testing.T, plan *Plan, withMAC, withMerkle bool) (*oram.Client, *FaultyStorage) {
	t.Helper()
	p := matrixParams()
	fs := WrapStorage(backend.NewMemStorage(p.NumNodes()), plan)
	c, err := oram.NewClient(p, fs, matrixKey(), withMAC, matrixSeed)
	if err != nil {
		t.Fatal(err)
	}
	if withMerkle {
		if err := c.EnableMerkle(); err != nil {
			t.Fatal(err)
		}
	}
	return c, fs
}

// verifyCampaignData checks every address holds the payload of its last
// campaign write (data survived the faults).
func verifyCampaignData(t *testing.T, c *oram.Client) {
	t.Helper()
	lastWrite := map[uint64]byte{}
	for i := 0; i < totalAccesses; i += 2 {
		lastWrite[uint64(i)%campaignAddrs] = byte(i)
	}
	for addr, want := range lastWrite {
		got, _, err := c.Access(oram.OpRead, addr, nil)
		if err != nil {
			t.Fatalf("read-back of addr %d: %v", addr, err)
		}
		if got[0] != want {
			t.Fatalf("addr %d = %d after recovery, want %d", addr, got[0], want)
		}
	}
}

func TestMatrixTransientBitFlipHealedByMAC(t *testing.T) {
	reads, _ := probeCampaign(t, true, false)
	nodesPerAccess := matrixParams().NodesPerAccess()
	seq := pickRead(t, reads, warmupAccesses*nodesPerAccess,
		func(r readInfo) bool { return r.populated })
	c, fs := newMatrixClient(t, planWith(t, Event{Kind: BitFlip, Seq: seq}), true, false)

	if err := runCampaign(c, totalAccesses); err != nil {
		t.Fatalf("transient bit flip not recovered: %v", err)
	}
	if got := fs.Stats().Injected[BitFlip]; got != 1 {
		t.Fatalf("injected %d bit flips, want 1", got)
	}
	rec := c.RecoveryStats()
	if rec.Retries == 0 {
		t.Fatal("MAC failure healed without any re-read retry")
	}
	if rec.RecoveryCycles == 0 {
		t.Fatal("recovery charged zero simulated cycles")
	}
	if rec.Alarms != 0 {
		t.Fatalf("transient fault raised %d alarms", rec.Alarms)
	}
	verifyCampaignData(t, c)
}

func TestMatrixPersistentGarbageRaisesMACAlarm(t *testing.T) {
	reads, _ := probeCampaign(t, true, false)
	nodesPerAccess := matrixParams().NodesPerAccess()
	seq := pickRead(t, reads, warmupAccesses*nodesPerAccess,
		func(r readInfo) bool { return r.populated })
	c, fs := newMatrixClient(t,
		planWith(t, Event{Kind: Garbage, Seq: seq, Persistent: true}), true, false)

	err := runCampaign(c, totalAccesses)
	var alarm oram.ErrSecurityAlarm
	if !errors.As(err, &alarm) {
		t.Fatalf("persistent garbage: err = %v, want ErrSecurityAlarm", err)
	}
	if alarm.Mechanism != backend.MechMAC {
		t.Fatalf("alarm mechanism = %q, want MAC", alarm.Mechanism)
	}
	rec := c.RecoveryStats()
	if rec.Alarms != 1 {
		t.Fatalf("alarms = %d, want 1", rec.Alarms)
	}
	if want := c.Recovery().MaxRetries; int(rec.Retries) != want {
		t.Fatalf("retries before alarm = %d, want the full budget %d", rec.Retries, want)
	}
	if fs.Stats().Persistent != 1 {
		t.Fatalf("storage reports %d persistent faults, want 1", fs.Stats().Persistent)
	}
}

func TestMatrixReplayDetectedByMACVersions(t *testing.T) {
	reads, _ := probeCampaign(t, true, false)
	nodesPerAccess := matrixParams().NodesPerAccess()
	seq := pickRead(t, reads, warmupAccesses*nodesPerAccess,
		func(r readInfo) bool { return r.rewritten })
	c, fs := newMatrixClient(t, planWith(t, Event{Kind: Replay, Seq: seq}), true, false)

	// The replayed image is authentic ciphertext of an older version; only
	// the trusted per-node version counters in the MAC make it detectable.
	if err := runCampaign(c, totalAccesses); err != nil {
		t.Fatalf("transient replay not recovered: %v", err)
	}
	if got := fs.Stats().Injected[Replay]; got != 1 {
		t.Fatalf("injected %d replays, want 1", got)
	}
	if rec := c.RecoveryStats(); rec.Retries == 0 || rec.Alarms != 0 {
		t.Fatalf("replay recovery stats = %+v", rec)
	}
	verifyCampaignData(t, c)
}

func TestMatrixDroppedWriteRaisesMACAlarm(t *testing.T) {
	reads, writes := probeCampaign(t, true, false)
	nodesPerAccess := matrixParams().NodesPerAccess()

	// Pick a droppable write (not the bucket's first) whose bucket the
	// campaign reads again afterwards — that later read is the detection
	// point: the client's version counter has advanced past the stale
	// stored image, so its MAC check fails persistently.
	seq := -1
	for w := warmupAccesses * nodesPerAccess; w < len(writes) && seq < 0; w++ {
		if writes[w].first {
			continue
		}
		firstLaterRead := (w/nodesPerAccess + 1) * nodesPerAccess
		for r := firstLaterRead; r < len(reads); r++ {
			if reads[r].node == writes[w].node {
				seq = w
				break
			}
		}
	}
	if seq < 0 {
		t.Fatal("probe found no droppable write that is read back")
	}
	c, fs := newMatrixClient(t,
		planWith(t, Event{Kind: DroppedWrite, Seq: uint64(seq)}), true, false)

	err := runCampaign(c, totalAccesses)
	var alarm oram.ErrSecurityAlarm
	if !errors.As(err, &alarm) {
		t.Fatalf("dropped write: err = %v, want ErrSecurityAlarm", err)
	}
	if alarm.Mechanism != backend.MechMAC {
		t.Fatalf("alarm mechanism = %q, want MAC", alarm.Mechanism)
	}
	if got := fs.Stats().Injected[DroppedWrite]; got != 1 {
		t.Fatalf("injected %d dropped writes, want 1", got)
	}
}

func TestMatrixMerkleHealsTransientBitFlip(t *testing.T) {
	reads, _ := probeCampaign(t, false, true)
	nodesPerAccess := matrixParams().NodesPerAccess()
	seq := pickRead(t, reads, warmupAccesses*nodesPerAccess,
		func(r readInfo) bool { return r.populated })
	c, fs := newMatrixClient(t, planWith(t, Event{Kind: BitFlip, Seq: seq}), false, true)

	if err := runCampaign(c, totalAccesses); err != nil {
		t.Fatalf("merkle: transient bit flip not recovered: %v", err)
	}
	if got := fs.Stats().Injected[BitFlip]; got != 1 {
		t.Fatalf("injected %d bit flips, want 1", got)
	}
	rec := c.RecoveryStats()
	if rec.PathRetries == 0 {
		t.Fatal("merkle failure healed without a path re-fetch")
	}
	if rec.RecoveryCycles == 0 {
		t.Fatal("merkle recovery charged zero simulated cycles")
	}
	verifyCampaignData(t, c)
}

func TestMatrixMerkleRaisesAlarmOnPersistentGarbage(t *testing.T) {
	reads, _ := probeCampaign(t, false, true)
	nodesPerAccess := matrixParams().NodesPerAccess()
	seq := pickRead(t, reads, warmupAccesses*nodesPerAccess,
		func(r readInfo) bool { return r.populated })
	c, _ := newMatrixClient(t,
		planWith(t, Event{Kind: Garbage, Seq: seq, Persistent: true}), false, true)

	err := runCampaign(c, totalAccesses)
	var alarm oram.ErrSecurityAlarm
	if !errors.As(err, &alarm) {
		t.Fatalf("merkle: persistent garbage: err = %v, want ErrSecurityAlarm", err)
	}
	if alarm.Mechanism != backend.MechMerkle {
		t.Fatalf("alarm mechanism = %q, want merkle", alarm.Mechanism)
	}
	if rec := c.RecoveryStats(); rec.Alarms != 1 || rec.PathRetries == 0 {
		t.Fatalf("merkle alarm stats = %+v", rec)
	}
}

// TestMatrixLinkCorruptionDetectedByChecksum checks that an unreliable
// link heals every corruption and loss by retransmitting, at a nonzero
// simulated cycle cost. A failed receiver checksum is the fault model's
// Corrupted outcome; no checksum is computed.
func TestMatrixLinkCorruptionDetectedByChecksum(t *testing.T) {
	link := bob.MustLink(bob.DefaultLinkConfig())
	link.SetFaultModel(NewLinkModel(matrixSeed, 0.25, 0.1))
	now := uint64(0)
	for i := 0; i < 300; i++ {
		now = link.SendDownFor(0, bob.FullPacketBytes, now)
	}
	st := link.DownStats()
	if st.Corrupted.Value() == 0 || st.Lost.Value() == 0 {
		t.Fatalf("fault model delivered no faults: %+v", st)
	}
	if st.Retransmits.Value() != st.Corrupted.Value()+st.Lost.Value() {
		t.Fatalf("retransmits %d != faults %d+%d",
			st.Retransmits.Value(), st.Corrupted.Value(), st.Lost.Value())
	}
	if st.RetryCycles.Value() == 0 {
		t.Fatal("link recovery charged zero cycles")
	}
	if st.GiveUps.Value() != 0 {
		t.Fatalf("%d sends exhausted the retransmit budget at moderate fault rates",
			st.GiveUps.Value())
	}
}

// TestMatrixCampaignReproducible runs a full randomly scheduled chaos
// campaign twice from the same seed and demands identical injections,
// recovery work, and surviving data.
func TestMatrixCampaignReproducible(t *testing.T) {
	run := func(seed uint64) (StorageStats, oram.RecoveryStats, []byte) {
		cfg := PlanConfig{Seed: seed, BitFlips: 6, Replays: 4, DroppedWrites: 0,
			Garbage: 0, PersistentFraction: 0,
			Horizon: uint64(totalAccesses * matrixParams().NodesPerAccess())}
		plan, err := NewPlan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, fs := newMatrixClient(t, plan, true, false)
		if err := runCampaign(c, totalAccesses); err != nil {
			t.Fatalf("seed %d: campaign failed: %v", seed, err)
		}
		var data []byte
		for addr := uint64(0); addr < campaignAddrs; addr++ {
			out, _, err := c.Access(oram.OpRead, addr, nil)
			if err != nil {
				t.Fatal(err)
			}
			data = append(data, out[0])
		}
		return fs.Stats(), c.RecoveryStats(), data
	}
	s1, r1, d1 := run(99)
	s2, r2, d2 := run(99)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(r1, r2) || !bytes.Equal(d1, d2) {
		t.Fatalf("same seed diverged:\n%+v vs %+v\n%+v vs %+v", s1, s2, r1, r2)
	}
	if s1.Total() == 0 {
		t.Fatal("reproducibility campaign injected nothing — vacuous")
	}
	if r1.Retries == 0 {
		t.Fatal("reproducibility campaign exercised no recovery — vacuous")
	}
}
