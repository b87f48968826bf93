package faults

import (
	"bytes"
	"reflect"
	"testing"

	"doram/internal/bob"
	"doram/internal/oram/backend"
)

func TestPlanValidation(t *testing.T) {
	bad := []PlanConfig{
		{BitFlips: -1, Horizon: 10},
		{PersistentFraction: 1.5, Horizon: 10},
		{BitFlips: 3, Horizon: 0},
	}
	for i, cfg := range bad {
		if _, err := NewPlan(cfg); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, cfg)
		}
	}
	if _, err := NewPlan(PlanConfig{}); err != nil {
		t.Fatalf("empty plan rejected: %v", err)
	}
}

func TestPlanReproducibleFromSeed(t *testing.T) {
	cfg := PlanConfig{Seed: 42, BitFlips: 5, Replays: 4, DroppedWrites: 3,
		Garbage: 2, PersistentFraction: 0.5, Horizon: 1000}
	a, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatal("same seed produced different schedules")
	}
	if len(a.Events()) != 14 {
		t.Fatalf("scheduled %d events, want 14", len(a.Events()))
	}
	cfg.Seed = 43
	c, _ := NewPlan(cfg)
	if reflect.DeepEqual(a.Events(), c.Events()) {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
	for _, ev := range a.Events() {
		if ev.Kind == DroppedWrite && !ev.Persistent {
			t.Fatal("dropped writes must be persistent")
		}
		if ev.Seq >= cfg.Horizon {
			t.Fatalf("event seq %d beyond horizon %d", ev.Seq, cfg.Horizon)
		}
	}
}

// planWith builds a plan containing exactly the given events (test hook:
// drive specific operations deterministically).
func planWith(t *testing.T, events ...Event) *Plan {
	t.Helper()
	p := &Plan{reads: map[uint64][]Event{}, writes: map[uint64][]Event{}}
	for _, ev := range events {
		if ev.Kind == DroppedWrite {
			ev.Persistent = true
			p.writes[ev.Seq] = append(p.writes[ev.Seq], ev)
		} else {
			p.reads[ev.Seq] = append(p.reads[ev.Seq], ev)
		}
		p.events = append(p.events, ev)
	}
	return p
}

func TestTransientBitFlipHealsOnReread(t *testing.T) {
	inner := backend.NewMemStorage(8)
	f := WrapStorage(inner, planWith(t, Event{Kind: BitFlip, Seq: 1}))
	img := bytes.Repeat([]byte{0xaa}, 32)
	f.WriteBucket(3, img)
	if got := f.ReadBucket(3); !bytes.Equal(got, img) {
		t.Fatal("read 0 disturbed before its scheduled fault")
	}
	if got := f.ReadBucket(3); bytes.Equal(got, img) {
		t.Fatal("scheduled bit flip not delivered")
	}
	if got := f.ReadBucket(3); !bytes.Equal(got, img) {
		t.Fatal("transient bit flip did not heal on re-read")
	}
	if f.Stats().Injected[BitFlip] != 1 {
		t.Fatalf("injected = %v, want one bit flip", f.Stats().Injected)
	}
}

func TestPersistentGarbageSticks(t *testing.T) {
	inner := backend.NewMemStorage(8)
	f := WrapStorage(inner, planWith(t, Event{Kind: Garbage, Seq: 0, Persistent: true}))
	img := bytes.Repeat([]byte{0x55}, 32)
	f.WriteBucket(2, img)
	first := f.ReadBucket(2)
	if bytes.Equal(first, img) {
		t.Fatal("garbage fault not delivered")
	}
	if got := f.ReadBucket(2); !bytes.Equal(got, first) {
		t.Fatal("persistent garbage did not stick across re-reads")
	}
	if f.Stats().Persistent != 1 {
		t.Fatalf("persistent count = %d, want 1", f.Stats().Persistent)
	}
}

func TestReplayServesStaleImage(t *testing.T) {
	inner := backend.NewMemStorage(8)
	f := WrapStorage(inner, planWith(t, Event{Kind: Replay, Seq: 0}))
	v1 := bytes.Repeat([]byte{1}, 16)
	v2 := bytes.Repeat([]byte{2}, 16)
	f.WriteBucket(5, v1)
	f.WriteBucket(5, v2)
	if got := f.ReadBucket(5); !bytes.Equal(got, v1) {
		t.Fatalf("replay returned %v, want the stale image", got[:2])
	}
	if got := f.ReadBucket(5); !bytes.Equal(got, v2) {
		t.Fatal("transient replay did not heal")
	}
}

func TestReplayWithoutHistoryDefers(t *testing.T) {
	inner := backend.NewMemStorage(8)
	f := WrapStorage(inner, planWith(t, Event{Kind: Replay, Seq: 0}))
	img := []byte{9, 9}
	f.WriteBucket(1, img)
	if got := f.ReadBucket(1); !bytes.Equal(got, img) {
		t.Fatal("replay with no stale version should pass through")
	}
	if f.Stats().Deferred != 1 {
		t.Fatalf("deferred = %d, want 1", f.Stats().Deferred)
	}
}

func TestDroppedWriteLeavesOldImage(t *testing.T) {
	inner := backend.NewMemStorage(8)
	f := WrapStorage(inner, planWith(t, Event{Kind: DroppedWrite, Seq: 1}))
	v1 := []byte{1}
	f.WriteBucket(4, v1)
	f.WriteBucket(4, []byte{2}) // dropped
	if got := f.ReadBucket(4); !bytes.Equal(got, v1) {
		t.Fatalf("dropped write: stored image is %v, want the old one", got)
	}
	if f.Stats().Injected[DroppedWrite] != 1 {
		t.Fatal("dropped write not counted")
	}
}

func TestDroppedFirstWriteDefers(t *testing.T) {
	inner := backend.NewMemStorage(8)
	f := WrapStorage(inner, planWith(t, Event{Kind: DroppedWrite, Seq: 0}))
	f.WriteBucket(4, []byte{7})
	if got := f.ReadBucket(4); got == nil {
		t.Fatal("first write must not be droppable (undetectable)")
	}
	if f.Stats().Deferred != 1 {
		t.Fatalf("deferred = %d, want 1", f.Stats().Deferred)
	}
}

func TestNilPlanPassesThrough(t *testing.T) {
	inner := backend.NewMemStorage(4)
	f := WrapStorage(inner, nil)
	f.WriteBucket(0, []byte{1, 2, 3})
	if got := f.ReadBucket(0); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatal("pass-through broken")
	}
	if s := f.Stats(); s.Reads != 1 || s.Writes != 1 || s.Total() != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLinkModelDeterministicAndBounded(t *testing.T) {
	seq := func(seed uint64) []bob.Outcome {
		m := NewLinkModel(seed, 0.2, 0.1)
		out := make([]bob.Outcome, 200)
		for i := range out {
			out[i] = m.NextOutcome()
		}
		return out
	}
	if !reflect.DeepEqual(seq(7), seq(7)) {
		t.Fatal("same seed produced different outcome sequences")
	}
	if reflect.DeepEqual(seq(7), seq(8)) {
		t.Fatal("different seeds produced identical sequences (suspicious)")
	}
	m := NewLinkModel(1, 0.2, 0.1)
	var faulted int
	const n = 5000
	for i := 0; i < n; i++ {
		if m.NextOutcome() != bob.Delivered {
			faulted++
		}
	}
	if frac := float64(faulted) / n; frac < 0.2 || frac > 0.4 {
		t.Fatalf("fault fraction %.3f far from configured 0.3", frac)
	}
	if m.Faulted() != uint64(faulted) || m.Attempts() != n {
		t.Fatalf("counters %d/%d disagree with observed %d/%d",
			m.Faulted(), m.Attempts(), faulted, n)
	}
}

func TestLinkModelClampsHostileProbabilities(t *testing.T) {
	m := NewLinkModel(1, 5, 5) // would never deliver if unclamped
	delivered := false
	for i := 0; i < 200 && !delivered; i++ {
		delivered = m.NextOutcome() == bob.Delivered
	}
	if !delivered {
		t.Fatal("clamped model never delivers")
	}
}
