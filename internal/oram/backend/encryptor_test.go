package backend

import (
	"bytes"
	"testing"
)

// TestEncryptorInPlace checks that every registered scheme works in the
// caller's buffers. A Seal into a buffer with room for the sealed image
// returns a slice of that buffer, holding the bytes a seal of a fresh copy
// holds; Open's plaintext lies in the sealed image's array; and the round
// trip gives back the plaintext. A failed ctr-hmac Open leaves the sealed
// image as it was.
func TestEncryptorInPlace(t *testing.T) {
	key := []byte("0123456789abcdef")
	const node, version = 5, 7
	plain := EncodeBucket([]*Block{{Addr: 3, Leaf: 1, Data: []byte("payload")}}, 4, 16)
	for _, name := range Encryptors() {
		t.Run(name, func(t *testing.T) {
			// aes-gcm draws a nonce per Seal; two encryptors over the same
			// nonce stream seal alike.
			build := func() Encryptor {
				if name == EncryptorAESGCM {
					e, err := NewAESGCMEncryptorWithNonces(key, bytes.NewReader(make([]byte, GCMNonceSize)))
					if err != nil {
						t.Fatal(err)
					}
					return e
				}
				e, err := NewEncryptor(name, key, true)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			e := build()
			buf := make([]byte, len(plain), e.SealedBytes(len(plain)))
			copy(buf, plain)
			sealed := e.Seal(node, version, buf)
			if !sharesArray(sealed, buf) {
				t.Fatal("Seal into a buffer with room returned a new array")
			}
			if want := build().Seal(node, version, bytes.Clone(plain)); !bytes.Equal(sealed, want) {
				t.Fatalf("in-place Seal = %x, want %x", sealed, want)
			}

			if name == EncryptorCTRHMAC {
				tampered := bytes.Clone(sealed)
				tampered[0] ^= 1
				saved := bytes.Clone(tampered)
				if _, err := e.Open(node, version, tampered); err == nil {
					t.Fatal("opened a tampered image")
				}
				if !bytes.Equal(tampered, saved) {
					t.Fatal("a failed Open changed the sealed image")
				}
			}

			got, err := e.Open(node, version, sealed)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if !sharesArray(got, sealed) {
				t.Fatal("Open's plaintext is not in the sealed image's array")
			}
			if !bytes.Equal(got, plain) {
				t.Fatalf("round trip = %x, want %x", got, plain)
			}
		})
	}
}

// sharesArray reports whether a and b are slices of one array that both
// reach its end, judged by the address of their last capacity element.
func sharesArray(a, b []byte) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
}
