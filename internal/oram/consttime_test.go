package oram

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"doram/internal/oram/backend"
)

func ctClient(t *testing.T, encryptor string, seed uint64) *Client {
	t.Helper()
	p := Params{Levels: 6, Z: 4, BlockSize: 64, TopCacheLevels: 2, StashCapacity: 200}
	enc, err := backend.NewEncryptor(encryptor, testKey, true)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClientWithOptions(p, ClientOptions{
		Storage:      backend.NewMemStorage(p.NumNodes()),
		Encryptor:    enc,
		ConstantTime: true,
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestConstantTimeAccessPatternEquality runs two constant-time clients
// through the same address sequence but completely different secret data
// values and asserts their observable behaviour is identical: the same
// memory traces (which nodes, in which order) and the same number of
// constant-time select operations. Secret values must not influence the
// access pattern — that is the mode's entire contract.
func TestConstantTimeAccessPatternEquality(t *testing.T) {
	a := ctClient(t, backend.EncryptorCTRHMAC, 99)
	b := ctClient(t, backend.EncryptorCTRHMAC, 99)

	n := a.Params().MaxBlocks() / 2
	for step := 0; step < 600; step++ {
		addr := uint64(step*2654435761) % n // fixed, value-independent walk
		var trA, trB Trace
		var err error
		if step%3 == 0 {
			_, trA, err = a.Access(OpRead, addr, nil)
			if err != nil {
				t.Fatalf("step %d: a read: %v", step, err)
			}
			_, trB, err = b.Access(OpRead, addr, nil)
			if err != nil {
				t.Fatalf("step %d: b read: %v", step, err)
			}
		} else {
			// The secret values differ completely between the clients.
			valA := []byte(fmt.Sprintf("client-a-%06d", step))
			valB := []byte{0xff, byte(step), 0xab, 0xcd}
			_, trA, err = a.Access(OpWrite, addr, valA)
			if err != nil {
				t.Fatalf("step %d: a write: %v", step, err)
			}
			_, trB, err = b.Access(OpWrite, addr, valB)
			if err != nil {
				t.Fatalf("step %d: b write: %v", step, err)
			}
		}
		if !reflect.DeepEqual(trA, trB) {
			t.Fatalf("step %d: traces diverged:\n a: %+v\n b: %+v", step, trA, trB)
		}
		if a.CTOps() != b.CTOps() {
			t.Fatalf("step %d: CT op counts diverged: a=%d b=%d", step, a.CTOps(), b.CTOps())
		}
	}
	if a.CTOps() == 0 {
		t.Fatal("constant-time mode performed no CT operations")
	}
	if !a.ConstantTime() {
		t.Fatal("client does not report constant-time mode")
	}
}

// TestConstantTimeCorrectness checks the branch-free serve path still
// returns the right data, for both encryptors.
func TestConstantTimeCorrectness(t *testing.T) {
	for _, enc := range []string{backend.EncryptorCTRHMAC, backend.EncryptorAESGCM} {
		t.Run(enc, func(t *testing.T) {
			c := ctClient(t, enc, 7)
			n := c.Params().MaxBlocks() / 2
			shadow := map[uint64][]byte{}
			for step := 0; step < 500; step++ {
				addr := uint64(step*11) % n
				if step%2 == 0 {
					val := []byte(fmt.Sprintf("ct-%s-%06d", enc, step))
					if _, _, err := c.Access(OpWrite, addr, val); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					shadow[addr] = val
				} else {
					got, _, err := c.Access(OpRead, addr, nil)
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if want, ok := shadow[addr]; ok && !bytes.Equal(got[:len(want)], want) {
						t.Fatalf("step %d: block %d = %q, want %q", step, addr, got[:len(want)], want)
					}
				}
			}
			if c.EncryptorName() != enc {
				t.Fatalf("EncryptorName = %q, want %q", c.EncryptorName(), enc)
			}
		})
	}
}
