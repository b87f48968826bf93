package backend

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"
)

// Known-answer tests for the bucket encryptors, in the style of the
// golden-vector suites hash packages ship: the hex vectors below are
// checked in, so any change to the wire format — IV/nonce derivation, MAC
// key derivation, tag truncation, AAD layout, ciphertext framing — fails
// loudly instead of silently producing buckets an older client cannot
// open. Every vector was produced by the implementation at the time the
// format was frozen and round-trips through Open.

type katVector struct {
	name    string
	key     string
	node    NodeID
	version uint64
	nonce   string // aes-gcm only: the injected 12-byte nonce
	plain   string
	sealed  string
}

var ctrHMACVectors = []katVector{
	{
		name:    "no-mac",
		key:     "000102030405060708090a0b0c0d0e0f",
		node:    5,
		version: 7,
		plain:   "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
		sealed:  "4d6bfe27fe0dc56dda9c5cee2c80b5cf6cd2eafcd613c00c3c0dc2e463ff4827",
	},
	{
		name:    "mac",
		key:     "000102030405060708090a0b0c0d0e0f",
		node:    5,
		version: 7,
		plain:   "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
		sealed:  "4d6bfe27fe0dc56dda9c5cee2c80b5cf6cd2eafcd613c00c3c0dc2e463ff482780a713f1cbf486c5c6abc44379bae554",
	},
	{
		name:    "mac-zero-ids",
		key:     "2b7e151628aed2a6abf7158809cf4f3c",
		node:    0,
		version: 0,
		plain:   "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51",
		sealed:  "1636d5ee34f80625d77f8e56ca884345f93ff7172ab212233043091582dde1974d8d073fae1cb3fab092207d9f25a829",
	},
	{
		name:    "mac-large-ids",
		key:     "2b7e151628aed2a6abf7158809cf4f3c",
		node:    1048575,
		version: 281474976710655,
		plain:   "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51",
		sealed:  "61b96d6e950be4abc930e929ea3c7387f558376a4335933e324e7a8e330d24b217d90140989a08450609da8e8488813f",
	},
}

var gcmVectors = []katVector{
	{
		name:    "basic",
		key:     "000102030405060708090a0b0c0d0e0f",
		node:    5,
		version: 7,
		nonce:   "a0a1a2a3a4a5a6a7a8a9aaab",
		plain:   "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
		sealed:  "a0a1a2a3a4a5a6a7a8a9aaabaa873ab87a8c350d8271bf0b4a1fbe6f43ff311b97022bb83d096b805e9091b7aaaca7242f0506c740d5b82ef64682d2",
	},
	{
		name:    "zero-ids",
		key:     "2b7e151628aed2a6abf7158809cf4f3c",
		node:    0,
		version: 0,
		nonce:   "cafebabefacedbaddecaf888",
		plain:   "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51",
		sealed:  "cafebabefacedbaddecaf8886ac7d9f77a1c8a43af5be6373b9f656281ade2f91ae5ae428656a3e0bf5dde1ecb868f96568a93311664e502501aaad3",
	},
}

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

func TestCTRHMACKnownAnswers(t *testing.T) {
	for _, v := range ctrHMACVectors {
		t.Run(v.name, func(t *testing.T) {
			e, err := NewCTRHMACEncryptor(unhex(t, v.key), len(v.sealed) > len(v.plain))
			if err != nil {
				t.Fatal(err)
			}
			plain := unhex(t, v.plain)
			got := e.Seal(v.node, v.version, bytes.Clone(plain))
			if hex.EncodeToString(got) != v.sealed {
				t.Fatalf("Seal = %x, want %s", got, v.sealed)
			}
			back, err := e.Open(v.node, v.version, unhex(t, v.sealed))
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if !bytes.Equal(back, plain) {
				t.Fatalf("round trip = %x, want %x", back, plain)
			}
		})
	}
}

func TestAESGCMKnownAnswers(t *testing.T) {
	for _, v := range gcmVectors {
		t.Run(v.name, func(t *testing.T) {
			e, err := NewAESGCMEncryptorWithNonces(unhex(t, v.key), bytes.NewReader(unhex(t, v.nonce)))
			if err != nil {
				t.Fatal(err)
			}
			plain := unhex(t, v.plain)
			got := e.Seal(v.node, v.version, bytes.Clone(plain))
			if hex.EncodeToString(got) != v.sealed {
				t.Fatalf("Seal = %x, want %s", got, v.sealed)
			}
			if len(got) != e.SealedBytes(len(plain)) {
				t.Fatalf("sealed length %d, want SealedBytes %d", len(got), e.SealedBytes(len(plain)))
			}
			// Open needs no injected nonces: the nonce rides in the image.
			fresh, err := NewAESGCMEncryptor(unhex(t, v.key))
			if err != nil {
				t.Fatal(err)
			}
			back, err := fresh.Open(v.node, v.version, unhex(t, v.sealed))
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if !bytes.Equal(back, plain) {
				t.Fatalf("round trip = %x, want %x", back, plain)
			}
		})
	}
}

// TestAESGCMBindsNodeAndVersion asserts the AAD actually covers the
// (node, version) pair: a sealed bucket must not open under a different
// identity (the replay/relocation defence).
func TestAESGCMBindsNodeAndVersion(t *testing.T) {
	v := gcmVectors[0]
	e, err := NewAESGCMEncryptor(unhex(t, v.key))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Open(v.node+1, v.version, unhex(t, v.sealed)); err == nil {
		t.Fatal("opened under wrong node")
	}
	if _, err := e.Open(v.node, v.version+1, unhex(t, v.sealed)); err == nil {
		t.Fatal("opened under wrong version")
	}
	var ierr ErrIntegrity
	_, err = e.Open(v.node, v.version+1, unhex(t, v.sealed))
	if !errors.As(err, &ierr) || ierr.Mechanism != MechMAC {
		t.Fatalf("want ErrIntegrity{MechMAC}, got %v", err)
	}
}

// TestCTRHMACTamperDetection flips one ciphertext bit and one tag bit and
// expects the truncated HMAC to reject both.
func TestCTRHMACTamperDetection(t *testing.T) {
	v := ctrHMACVectors[1] // the "mac" vector
	e, err := NewCTRHMACEncryptor(unhex(t, v.key), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, bit := range []int{0, len(v.sealed)/2*4 - 1} {
		sealed := unhex(t, v.sealed)
		sealed[bit/8] ^= 1 << uint(bit%8)
		if _, err := e.Open(v.node, v.version, sealed); err == nil {
			t.Fatalf("opened with bit %d flipped", bit)
		}
	}
}
