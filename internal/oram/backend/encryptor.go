package backend

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
)

// Encryptor seals bucket images for untrusted storage and opens them on
// the way back. Seal is called with a fresh (node, version) pair on every
// write-back — version is a trusted, monotonically increasing per-node
// counter — so implementations can derive unique nonces from it (CTR) or
// bind it as associated data against replay (GCM). Two encryptions of
// identical content must be indistinguishable: the re-encryption Path ORAM
// requires.
type Encryptor interface {
	// Name returns the registry name ("ctr-hmac", "aes-gcm", "noop").
	Name() string
	// SealedBytes returns the ciphertext size for an n-byte plaintext.
	SealedBytes(n int) int
	// Seal encrypts a bucket image for (node, version). It consumes
	// plain: the sealed image may share plain's array, using its spare
	// capacity for any nonce or tag, and is in a new array only when
	// cap(plain) < SealedBytes(len(plain)). The caller must not read
	// plain afterwards, and the encryptor retains neither slice.
	Seal(node NodeID, version uint64, plain []byte) []byte
	// Open decrypts (and, when the scheme authenticates, verifies) a
	// sealed bucket. It consumes sealed, whether or not it succeeds: the
	// plaintext may share sealed's array. A failed authentication
	// returns ErrIntegrity naming the node.
	Open(node NodeID, version uint64, sealed []byte) ([]byte, error)
}

// Encryptor registry names. The empty string selects the default.
const (
	EncryptorCTRHMAC = "ctr-hmac"
	EncryptorAESGCM  = "aes-gcm"
	EncryptorNoOp    = "noop"
)

// DefaultEncryptor is the scheme the empty name resolves to.
const DefaultEncryptor = EncryptorCTRHMAC

// encryptors is the encryptor registry: every name with its constructor
// over a 16-byte key. withMAC only affects the ctr-hmac scheme (GCM always
// authenticates, noop never does).
var encryptors = registry[func(key []byte, withMAC bool) (Encryptor, error)]{
	{EncryptorCTRHMAC, func(key []byte, withMAC bool) (Encryptor, error) {
		return NewCTRHMACEncryptor(key, withMAC)
	}},
	{EncryptorAESGCM, func(key []byte, _ bool) (Encryptor, error) {
		return NewAESGCMEncryptor(key)
	}},
	{EncryptorNoOp, func([]byte, bool) (Encryptor, error) {
		return NewNoOpEncryptor(), nil
	}},
}

// Encryptors returns the valid encryptor names, sorted.
func Encryptors() []string { return encryptors.names() }

// NewEncryptor builds the named encryptor over a 16-byte key (see
// encryptors). An unknown name lists the valid ones in the error.
func NewEncryptor(name string, key []byte, withMAC bool) (Encryptor, error) {
	build, ok := encryptors.lookup(name, DefaultEncryptor)
	if !ok {
		return nil, fmt.Errorf("oram: unknown encryptor %q (valid: %v)", name, Encryptors())
	}
	return build(key, withMAC)
}

// MACSize is the truncated tag length appended to ctr-hmac buckets.
const MACSize = 16

// CTRHMACEncryptor re-encrypts buckets on every write-back using AES-CTR
// with a (node, version) nonce, so two encryptions of identical content
// are indistinguishable. With MAC enabled it also appends a truncated
// HMAC-SHA256 tag binding node and version, defeating spoofing and replay
// of stale buckets.
//
// The keyed HMAC and its scratch buffers are built once and reused for
// every tag, so a CTRHMACEncryptor is not safe for concurrent use: like
// the client it serves, it belongs to one goroutine at a time.
type CTRHMACEncryptor struct {
	block  cipher.Block
	mac    hash.Hash // keyed once; Reset before each tag
	id     [16]byte  // little-endian (node, version): CTR IV and tag prefix
	sum    [sha256.Size]byte
	useMAC bool
}

// NewCTRHMACEncryptor builds bucket crypto from a 16-byte key.
func NewCTRHMACEncryptor(key []byte, withMAC bool) (*CTRHMACEncryptor, error) {
	if len(key) != 16 {
		return nil, fmt.Errorf("oram: key must be 16 bytes, got %d", len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	var in [16]byte
	var macKey [32]byte
	copy(in[:], "oram-mac-derive0")
	block.Encrypt(macKey[0:16], in[:])
	in[15] = '1'
	block.Encrypt(macKey[16:32], in[:])
	return &CTRHMACEncryptor{block: block, mac: hmac.New(sha256.New, macKey[:]), useMAC: withMAC}, nil
}

// Name implements Encryptor.
func (c *CTRHMACEncryptor) Name() string { return EncryptorCTRHMAC }

// SealedBytes implements Encryptor.
func (c *CTRHMACEncryptor) SealedBytes(n int) int {
	if c.useMAC {
		return n + MACSize
	}
	return n
}

// identity encodes (node, version) into the encryptor's scratch block,
// which serves as both the CTR IV and the tag's prefix.
func (c *CTRHMACEncryptor) identity(node NodeID, version uint64) []byte {
	binary.LittleEndian.PutUint64(c.id[0:8], uint64(node))
	binary.LittleEndian.PutUint64(c.id[8:16], version)
	return c.id[:]
}

func (c *CTRHMACEncryptor) stream(node NodeID, version uint64) cipher.Stream {
	return cipher.NewCTR(c.block, c.identity(node, version))
}

// Seal implements Encryptor. It encrypts plain in place and appends the
// tag into its spare capacity.
func (c *CTRHMACEncryptor) Seal(node NodeID, version uint64, plain []byte) []byte {
	out := plain
	if n := c.SealedBytes(len(plain)); cap(plain) < n {
		out = make([]byte, len(plain), n)
	}
	c.stream(node, version).XORKeyStream(out, plain)
	if !c.useMAC {
		return out
	}
	return append(out, c.tag(node, version, out)[:MACSize]...)
}

// Open implements Encryptor. It verifies the tag before decrypting in
// place, so a failed Open leaves sealed as it was.
func (c *CTRHMACEncryptor) Open(node NodeID, version uint64, sealed []byte) ([]byte, error) {
	body := sealed
	if c.useMAC {
		if len(sealed) < MACSize {
			return nil, ErrIntegrity{Node: node, Level: node.Level(), Mechanism: MechMAC}
		}
		body = sealed[:len(sealed)-MACSize]
		if !hmac.Equal(c.tag(node, version, body)[:MACSize], sealed[len(body):]) {
			return nil, ErrIntegrity{Node: node, Level: node.Level(), Mechanism: MechMAC}
		}
	}
	c.stream(node, version).XORKeyStream(body, body)
	return body, nil
}

// tag returns the full HMAC-SHA256 over (node, version, ct). The result
// aliases the encryptor's scratch buffer and is valid until the next tag.
func (c *CTRHMACEncryptor) tag(node NodeID, version uint64, ct []byte) []byte {
	c.mac.Reset()
	c.mac.Write(c.identity(node, version))
	c.mac.Write(ct)
	return c.mac.Sum(c.sum[:0])
}

// NoOpEncryptor stores bucket images in the clear: no confidentiality, no
// integrity, zero crypto cost. It exists for fast functional tests and for
// isolating protocol behaviour (stash dynamics, eviction ablations) from
// crypto overhead — never for deployments.
type NoOpEncryptor struct{}

// NewNoOpEncryptor returns the identity encryptor.
func NewNoOpEncryptor() *NoOpEncryptor { return &NoOpEncryptor{} }

// Name implements Encryptor.
func (*NoOpEncryptor) Name() string { return EncryptorNoOp }

// SealedBytes implements Encryptor.
func (*NoOpEncryptor) SealedBytes(n int) int { return n }

// Seal implements Encryptor. It returns plain itself.
func (*NoOpEncryptor) Seal(node NodeID, version uint64, plain []byte) []byte { return plain }

// Open implements Encryptor. It returns sealed itself.
func (*NoOpEncryptor) Open(node NodeID, version uint64, sealed []byte) ([]byte, error) {
	return sealed, nil
}
