package backend

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
)

// GCM wire-format sizes: a fresh random nonce is prepended to every sealed
// bucket and the 16-byte tag is appended by the AEAD, so a sealed bucket
// is plaintext + 28 bytes.
const (
	GCMNonceSize = 12
	GCMTagSize   = 16
	GCMOverhead  = GCMNonceSize + GCMTagSize
)

// AESGCMEncryptor seals buckets with AES-128-GCM under a fresh random
// nonce per write-back. The (node, version) pair is bound as associated
// data, so a stale-but-authentic image replayed into a bucket (or a valid
// image copied between nodes) fails authentication against the trusted
// version counter — the same replay resistance the ctr-hmac scheme gets
// from its versioned tag, but with the authentication inseparable from
// decryption.
//
// Randomized nonces make sealed images non-reproducible across runs (the
// scheme trades the deterministic-storage property for standard AEAD
// hygiene); functional results are unaffected because nothing downstream
// reads ciphertext bytes. Tests that need reproducible vectors inject a
// fixed nonce stream via NewAESGCMEncryptorWithNonces.
type AESGCMEncryptor struct {
	aead  cipher.AEAD
	nonce io.Reader
}

// NewAESGCMEncryptor builds the AEAD from a 16-byte key, drawing nonces
// from crypto/rand.
func NewAESGCMEncryptor(key []byte) (*AESGCMEncryptor, error) {
	return NewAESGCMEncryptorWithNonces(key, rand.Reader)
}

// NewAESGCMEncryptorWithNonces is NewAESGCMEncryptor with an injectable
// nonce source, for known-answer tests. Production code must pass a
// cryptographically random reader: nonce reuse under one key voids GCM's
// guarantees.
func NewAESGCMEncryptorWithNonces(key []byte, nonces io.Reader) (*AESGCMEncryptor, error) {
	if len(key) != 16 {
		return nil, fmt.Errorf("oram: key must be 16 bytes, got %d", len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return &AESGCMEncryptor{aead: aead, nonce: nonces}, nil
}

// Name implements Encryptor.
func (g *AESGCMEncryptor) Name() string { return EncryptorAESGCM }

// SealedBytes implements Encryptor.
func (g *AESGCMEncryptor) SealedBytes(n int) int { return n + GCMOverhead }

// aad encodes the associated data binding a sealed image to its bucket
// slot and write generation.
func aad(node NodeID, version uint64) []byte {
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(node))
	binary.LittleEndian.PutUint64(hdr[8:16], version)
	return hdr[:]
}

// Seal implements Encryptor. With room in plain's capacity it shifts the
// plaintext up past the nonce and encrypts it there, the exact overlap
// cipher.AEAD allows.
func (g *AESGCMEncryptor) Seal(node NodeID, version uint64, plain []byte) []byte {
	var out []byte
	if n := g.SealedBytes(len(plain)); cap(plain) >= n {
		out = plain[:GCMNonceSize+len(plain)]
		copy(out[GCMNonceSize:], plain)
		plain = out[GCMNonceSize:]
	} else {
		out = make([]byte, GCMNonceSize, n)
	}
	if _, err := io.ReadFull(g.nonce, out[:GCMNonceSize]); err != nil {
		// crypto/rand failure means the platform's entropy source is gone;
		// continuing would reuse or zero nonces. Fail loudly.
		panic(fmt.Sprintf("oram: gcm nonce source: %v", err))
	}
	return g.aead.Seal(out[:GCMNonceSize], out[:GCMNonceSize], plain, aad(node, version))
}

// Open implements Encryptor. It decrypts into sealed's own ciphertext
// bytes; a failed Open may leave them garbled.
func (g *AESGCMEncryptor) Open(node NodeID, version uint64, sealed []byte) ([]byte, error) {
	if len(sealed) < GCMOverhead {
		return nil, ErrIntegrity{Node: node, Level: node.Level(), Mechanism: MechMAC}
	}
	body := sealed[GCMNonceSize:]
	plain, err := g.aead.Open(body[:0], sealed[:GCMNonceSize], body, aad(node, version))
	if err != nil {
		return nil, ErrIntegrity{Node: node, Level: node.Level(), Mechanism: MechMAC}
	}
	return plain, nil
}
