package backend

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzBucketOpen feeds arbitrary bytes to every encryptor's Open at an
// arbitrary (node, version): it must never panic, and neither may
// DecodeBucket of whatever Open accepts. The fuzzed bytes are also sealed
// as a bucket image at several consecutive nodes through one encryptor;
// for the authenticating schemes (ctr-hmac with MAC, aes-gcm) every
// sealed bucket must open back to its image, and flipping any one bit,
// or opening it at another node or version, must fail with ErrIntegrity
// naming the node. The encryptors live across inputs, as they do across
// a client's accesses, so state one tag leaves behind would surface as a
// wrong verdict on a later one. Seeds live in testdata/fuzz/FuzzBucketOpen.
func FuzzBucketOpen(f *testing.F) {
	const z, blockSize = 4, 16
	key := []byte("0123456789abcdef")
	mac, err := NewCTRHMACEncryptor(key, true)
	if err != nil {
		f.Fatal(err)
	}
	gcm, err := NewAESGCMEncryptor(key)
	if err != nil {
		f.Fatal(err)
	}
	authenticating := []Encryptor{mac, gcm}
	all := []Encryptor{mac, gcm, NewNoOpEncryptor()}

	f.Add(uint64(5), uint64(7), uint64(0), EncodeBucket([]*Block{{Addr: 3, Leaf: 1, Data: []byte("payload")}}, z, blockSize))
	f.Add(uint64(0), uint64(0), uint64(13), []byte{})
	f.Fuzz(func(t *testing.T, node, version, bit uint64, data []byte) {
		n := NodeID(node)
		// Seal and Open consume their input, so every call gets its own
		// copy, and every probe opens a copy of a still-sealed image.
		for _, e := range all {
			if plain, err := e.Open(n, version, bytes.Clone(data)); err == nil {
				DecodeBucket(nil, plain, z, blockSize, nil)
			}
		}
		for _, e := range authenticating {
			sealed := make([][]byte, 3)
			for k := range sealed {
				sealed[k] = e.Seal(n+NodeID(k), version+uint64(k), bytes.Clone(data))
			}
			for k, s := range sealed {
				id, v := n+NodeID(k), version+uint64(k)
				plain, err := e.Open(id, v, bytes.Clone(s))
				if err != nil || !bytes.Equal(plain, data) {
					t.Fatalf("%s: open of a valid bucket at node %d version %d: %v", e.Name(), id, v, err)
				}
				flipped := bytes.Clone(s)
				pos := bit % uint64(len(flipped)*8)
				flipped[pos/8] ^= 1 << (pos % 8)
				expectIntegrity(t, e, id, v, flipped, "a flipped bit")
				expectIntegrity(t, e, id+1, v, bytes.Clone(s), "another node")
				expectIntegrity(t, e, id, v+1, bytes.Clone(s), "another version")
			}
		}
	})
}

// expectIntegrity opens sealed at (node, version) and requires the
// ErrIntegrity of a MAC failure at that node.
func expectIntegrity(t *testing.T, e Encryptor, node NodeID, version uint64, sealed []byte, what string) {
	t.Helper()
	_, err := e.Open(node, version, sealed)
	var ie ErrIntegrity
	if !errors.As(err, &ie) || ie.Node != node || ie.Mechanism != MechMAC {
		t.Fatalf("%s: open with %s at node %d version %d returned %v, want ErrIntegrity at that node",
			e.Name(), what, node, version, err)
	}
}
