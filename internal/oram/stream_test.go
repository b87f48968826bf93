package oram

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"doram/internal/oram/backend"
	"doram/internal/xrand"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// streamEncryptor is one bucket-crypto configuration of the stream golden.
// aes-gcm is absent: its nonces are random, so its ciphertexts are not a
// function of the seed.
type streamEncryptor struct {
	name    string
	withMAC bool
}

func (e streamEncryptor) label() string {
	if e.name == backend.EncryptorCTRHMAC && e.withMAC {
		return e.name + "+mac"
	}
	return e.name
}

// clientStreamDigest drives a seeded mixed read/write stream through a
// client over MemStorage and hashes everything it exposes: each access's
// served bytes, read and write node lists and stash occupancy, then the
// stash high-water mark and every node's stored image at the end.
func clientStreamDigest(t *testing.T, evict string, e streamEncryptor, ct bool, seed uint64) string {
	t.Helper()
	p := Params{Levels: 8, Z: 4, BlockSize: 32, TopCacheLevels: 2, StashCapacity: 200}
	store := backend.NewMemStorage(p.NumNodes())
	enc, err := backend.NewEncryptor(e.name, testKey, e.withMAC)
	if err != nil {
		t.Fatal(err)
	}
	strategy, err := backend.NewEviction(evict)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClientWithOptions(p, ClientOptions{
		Storage: store, Encryptor: enc, Eviction: strategy, ConstantTime: ct, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(seed ^ 0x57ea4)
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	for i := 0; i < 1500; i++ {
		addr := rng.Uint64n(900)
		op, data := OpRead, []byte(nil)
		if rng.Intn(2) == 0 {
			op = OpWrite
			data = make([]byte, 1+rng.Intn(p.BlockSize))
			for j := range data {
				data[j] = byte(rng.Uint64())
			}
		}
		out, tr, err := c.Access(op, addr, data)
		if err != nil {
			t.Fatalf("%s/%s ct=%v seed %d: access %d: %v", evict, e.label(), ct, seed, i, err)
		}
		put(uint64(len(out)))
		h.Write(out)
		put(uint64(len(tr.ReadNodes)))
		for _, n := range tr.ReadNodes {
			put(uint64(n))
		}
		put(uint64(len(tr.WriteNodes)))
		for _, n := range tr.WriteNodes {
			put(uint64(n))
		}
		put(uint64(c.StashLen()))
	}
	put(uint64(c.StashMax()))
	put(c.BlocksEvicted())
	put(c.CTOps())
	for n := uint64(0); n < p.NumNodes(); n++ {
		img := store.ReadBucket(backend.NodeID(n))
		if img == nil {
			put(^uint64(0))
			continue
		}
		put(uint64(len(img)))
		h.Write(img)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestClientStream pins the functional client's observable stream — the
// bytes it serves, the nodes it touches, its stash occupancy and every
// stored ciphertext — for every eviction strategy, deterministic
// encryptor, serve path and two seeds. The strategy differential compares
// served data only, so a changed eviction pick or ciphertext byte that
// leaves reads correct shows up here alone. Regenerate with
// `go test ./internal/oram -run TestClientStream -update-golden` only
// when a change is meant to alter the stream.
func TestClientStream(t *testing.T) {
	encs := []streamEncryptor{
		{backend.EncryptorCTRHMAC, true},
		{backend.EncryptorCTRHMAC, false},
		{backend.EncryptorNoOp, false},
	}
	var got bytes.Buffer
	for _, evict := range backend.Evictions() {
		for _, e := range encs {
			for _, ct := range []bool{false, true} {
				for seed := uint64(1); seed <= 2; seed++ {
					fmt.Fprintf(&got, "%s %s ct=%v seed=%d %s\n", evict, e.label(), ct, seed,
						clientStreamDigest(t, evict, e, ct, seed))
				}
			}
		}
	}
	golden := filepath.Join("testdata", "client_stream.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to regenerate)", err)
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range gotLines {
		if i >= len(wantLines) || !bytes.Equal(gotLines[i], wantLines[i]) {
			var w []byte
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("client stream diverged from %s at line %d:\n  got  %s\n  want %s", golden, i+1, gotLines[i], w)
		}
	}
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%s has %d lines, the run produced %d", golden, len(wantLines), len(gotLines))
	}
}
