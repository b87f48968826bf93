package oram

import (
	"bytes"
	"errors"
	"testing"

	"doram/internal/oram/backend"
)

// glitchStorage disturbs reads of populated buckets: each read of a
// non-nil image is corrupted while budget != 0 (budget < 0 = forever).
// Corruption happens on the returned copy only, so a budget of 1 models a
// transient glitch that heals on re-read.
type glitchStorage struct {
	*backend.MemStorage
	budget int
}

func (g *glitchStorage) ReadBucket(node backend.NodeID) []byte {
	buf := g.MemStorage.ReadBucket(node)
	if buf != nil && g.budget != 0 {
		if g.budget > 0 {
			g.budget--
		}
		buf[0] ^= 1
	}
	return buf
}

func newRecoveryClient(t *testing.T, store backend.Storage) *Client {
	t.Helper()
	c, err := NewClient(smallParams(), store, bytes.Repeat([]byte{7}, 16), true, 11)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// warmup populates tree buckets so later reads have images to corrupt.
func warmup(t *testing.T, c *Client, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, _, err := c.Access(OpWrite, uint64(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTransientGlitchHealsWithinRetryBudget(t *testing.T) {
	g := &glitchStorage{MemStorage: backend.NewMemStorage(smallParams().NumNodes())}
	c := newRecoveryClient(t, g)
	warmup(t, c, 20)

	g.budget = 1
	out, _, err := c.Access(OpRead, 5, nil)
	if err != nil {
		t.Fatalf("transient glitch not recovered: %v", err)
	}
	if out[0] != 5 {
		t.Fatalf("recovered read returned %d, want 5", out[0])
	}
	rec := c.RecoveryStats()
	if rec.Retries != 1 {
		t.Fatalf("retries = %d, want exactly 1", rec.Retries)
	}
	if want := c.Recovery().RetryCostCycles; rec.RecoveryCycles != want {
		t.Fatalf("recovery cycles = %d, want %d (one retry)", rec.RecoveryCycles, want)
	}
	if rec.Alarms != 0 {
		t.Fatalf("transient glitch raised %d alarms", rec.Alarms)
	}
}

func TestPersistentTamperRaisesAlarmWithFullAttemptCount(t *testing.T) {
	g := &glitchStorage{MemStorage: backend.NewMemStorage(smallParams().NumNodes())}
	c := newRecoveryClient(t, g)
	warmup(t, c, 20)

	g.budget = -1
	_, _, err := c.Access(OpRead, 3, nil)
	var alarm ErrSecurityAlarm
	if !errors.As(err, &alarm) {
		t.Fatalf("persistent tamper: err = %v, want ErrSecurityAlarm", err)
	}
	if alarm.Mechanism != backend.MechMAC {
		t.Fatalf("mechanism = %q, want MAC", alarm.Mechanism)
	}
	if want := c.Recovery().MaxRetries + 1; alarm.Attempts != want {
		t.Fatalf("attempts = %d, want %d (original + full retry budget)",
			alarm.Attempts, want)
	}
	if rec := c.RecoveryStats(); rec.Alarms != 1 {
		t.Fatalf("alarms = %d, want 1", rec.Alarms)
	}
}

func TestRecoveryDisabledFailsFastWithTypedError(t *testing.T) {
	g := &glitchStorage{MemStorage: backend.NewMemStorage(smallParams().NumNodes())}
	c := newRecoveryClient(t, g)
	c.SetRecovery(RecoveryConfig{}) // MaxRetries 0: pre-recovery behaviour
	warmup(t, c, 20)

	g.budget = -1
	_, _, err := c.Access(OpRead, 3, nil)
	var integ backend.ErrIntegrity
	if !errors.As(err, &integ) {
		t.Fatalf("fail-fast: err = %v, want ErrIntegrity", err)
	}
	if integ.Mechanism != backend.MechMAC || integ.Level < 0 {
		t.Fatalf("fail-fast error = %+v", integ)
	}
	if rec := c.RecoveryStats(); rec.Retries != 0 || rec.Alarms != 0 {
		t.Fatalf("disabled recovery still accumulated stats: %+v", rec)
	}
}

func TestStashPressureReliefIssuesDummies(t *testing.T) {
	p := smallParams()
	c := newTestClient(t, p, true)
	c.SetStashPressureRelief(2, 2) // aggressive: trip on any real occupancy

	// Fill most of the tree's logical capacity so blocks linger in the
	// stash between accesses.
	const n = 300
	for i := 0; i < n; i++ {
		if _, _, err := c.Access(OpWrite, uint64(i)%200, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	rec := c.RecoveryStats()
	if rec.PressureEvictions == 0 {
		t.Fatal("pressure relief never triggered at threshold 5")
	}
	// Relief dummies are protocol-internal: the access counter only sees
	// the caller's operations.
	if c.Accesses() != n {
		t.Fatalf("accesses = %d, want %d (relief must not count)", c.Accesses(), n)
	}
}

func TestStashPressureReliefDisabledByZeroThreshold(t *testing.T) {
	c := newTestClient(t, smallParams(), true)
	c.SetStashPressureRelief(0, 4)
	for i := 0; i < 30; i++ {
		if _, _, err := c.Access(OpWrite, uint64(i), []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if rec := c.RecoveryStats(); rec.PressureEvictions != 0 {
		t.Fatalf("disabled relief still evicted %d times", rec.PressureEvictions)
	}
}

func TestAccessSurfacesStashOverflowAsTypedError(t *testing.T) {
	p := smallParams()
	p.StashCapacity = p.Z // one bucket: a path read must overflow
	store := backend.NewMemStorage(p.NumNodes())
	c, err := NewClient(p, store, bytes.Repeat([]byte{7}, 16), true, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 50; i++ {
		_, _, accessErr := c.Access(OpWrite, i, []byte{byte(i)})
		if accessErr != nil {
			var overflow backend.ErrStashOverflow
			if !errors.As(accessErr, &overflow) {
				t.Fatalf("err = %v, want ErrStashOverflow", accessErr)
			}
			if overflow.Capacity != p.StashCapacity {
				t.Fatalf("overflow capacity = %d, want %d", overflow.Capacity, p.StashCapacity)
			}
			return
		}
	}
	t.Fatal("stash never overflowed at capacity Z")
}

func TestMemStorageCopySemantics(t *testing.T) {
	m := backend.NewMemStorage(4)

	// WriteBucket must copy: mutating the input afterwards must not reach
	// the stored image.
	in := []byte{1, 2, 3, 4}
	m.WriteBucket(2, in)
	in[0] = 99
	if got := m.ReadBucket(2); got[0] != 1 {
		t.Fatalf("stored image aliases the written buffer: %v", got)
	}

	// ReadBucket hands out its own read buffer, never the stored image:
	// mutating the returned slice must not corrupt storage (this is what
	// makes transient faults transient).
	out := m.ReadBucket(2)
	out[1] = 99
	if got := m.ReadBucket(2); got[1] != 2 {
		t.Fatalf("returned slice aliases the stored image: %v", got)
	}

	// Never-written buckets stay nil through the copy path.
	if got := m.ReadBucket(3); got != nil {
		t.Fatalf("unwritten bucket = %v, want nil", got)
	}
}

func TestIntegrityErrorMessagesNameMechanismAndNode(t *testing.T) {
	e := backend.ErrIntegrity{Node: 9, Level: 3, Mechanism: backend.MechMAC}
	path := backend.ErrIntegrity{Node: 9, Level: -1, Mechanism: backend.MechMerkle}
	if e.Error() == "" || path.Error() == "" {
		t.Fatal("empty integrity error message")
	}
	a := ErrSecurityAlarm{Node: 9, Mechanism: backend.MechMerkle, Attempts: 4}
	if a.Error() == "" {
		t.Fatal("empty alarm message")
	}
}
