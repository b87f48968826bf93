package oram

import (
	"fmt"
	"testing"

	"doram/internal/oram/backend"
	"doram/internal/xrand"
)

func TestRecursiveMapDepth(t *testing.T) {
	cases := []struct {
		blocks uint64
		depth  int
	}{
		{512, 0},     // fits the 1024-entry trusted map directly
		{8192, 1},    // 8192 -> 1024
		{65536, 1},   // 65536/8 = 8192 > 1024? -> needs level; 8192 -> 1024 fits
		{1 << 20, 2}, // 1M -> 128K -> 16K -> ... check below
	}
	for _, tc := range cases {
		cfg := DefaultRecursiveMapConfig(tc.blocks)
		r, err := NewRecursiveMap(cfg)
		if err != nil {
			t.Fatalf("blocks=%d: %v", tc.blocks, err)
		}
		// Verify depth by reconstruction: entries shrink by 8x per level
		// until they fit 1024.
		want := 0
		for n := tc.blocks; n > cfg.FinalMapEntries; n = (n + 7) / 8 {
			want++
		}
		if r.Depth() != want {
			t.Errorf("blocks=%d: depth = %d, want %d", tc.blocks, r.Depth(), want)
		}
	}
}

func TestRecursiveMapGetSet(t *testing.T) {
	r, err := NewRecursiveMap(DefaultRecursiveMapConfig(1 << 16))
	if err != nil {
		t.Fatal(err)
	}
	if r.Depth() < 1 {
		t.Fatalf("depth = %d; test needs real recursion", r.Depth())
	}
	if got := r.Get(1234); got != backend.InvalidPath {
		t.Fatalf("unmapped entry = %d, want InvalidPath", got)
	}
	r.Set(1234, 42)
	if got := r.Get(1234); got != 42 {
		t.Fatalf("Get = %d, want 42", got)
	}
	// Leaf 0 must be representable (the +1 encoding's edge case).
	r.Set(7, 0)
	if got := r.Get(7); got != 0 {
		t.Fatalf("Get(7) = %d, want 0", got)
	}
	// Overwrites stick.
	r.Set(1234, 99)
	if got := r.Get(1234); got != 99 {
		t.Fatalf("after overwrite Get = %d, want 99", got)
	}
	if r.MapAccesses() == 0 {
		t.Fatal("no map-ORAM accesses counted despite recursion")
	}
}

func TestRecursiveMapManyEntries(t *testing.T) {
	r, err := NewRecursiveMap(DefaultRecursiveMapConfig(1 << 15))
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(3)
	want := map[uint64]uint64{}
	for i := 0; i < 400; i++ {
		addr := rng.Uint64n(1 << 15)
		leaf := rng.Uint64n(1 << 20)
		r.Set(addr, leaf)
		want[addr] = leaf
	}
	for addr, leaf := range want {
		if got := r.Get(addr); got != leaf {
			t.Fatalf("addr %d: got %d, want %d", addr, got, leaf)
		}
	}
}

func TestRecursiveMapBacksAClient(t *testing.T) {
	// End-to-end: a data ORAM whose position map is itself stored in
	// ORAMs. This is the full recursive Path ORAM construction.
	p := Params{Levels: 10, Z: 4, BlockSize: 64, TopCacheLevels: 2, StashCapacity: 400}
	rmCfg := DefaultRecursiveMapConfig(p.MaxBlocks())
	rm, err := NewRecursiveMap(rmCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Depth() == 0 {
		t.Fatalf("map for %d blocks should recurse", p.MaxBlocks())
	}
	client, err := NewClientWithMap(p, backend.NewMemStorage(p.NumNodes()), testKey, false, 5, rm)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 50; i++ {
		if _, _, err := client.Access(OpWrite, i, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := uint64(0); i < 50; i++ {
		got, _, err := client.Access(OpRead, i, nil)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		want := fmt.Sprintf("v%d", i)
		if string(got[:len(want)]) != want {
			t.Fatalf("block %d = %q, want %q", i, got[:len(want)], want)
		}
	}
	if rm.MapAccesses() == 0 {
		t.Fatal("data accesses did not touch the recursive map")
	}
	t.Logf("depth %d, %d map accesses for %d data accesses",
		rm.Depth(), rm.MapAccesses(), client.Accesses())
}

func TestRecursiveMapConfigValidation(t *testing.T) {
	muts := []func(*RecursiveMapConfig){
		func(c *RecursiveMapConfig) { c.DataBlocks = 0 },
		func(c *RecursiveMapConfig) { c.EntriesPerBlock = 1 },
		func(c *RecursiveMapConfig) { c.BlockSize = 8 },
		func(c *RecursiveMapConfig) { c.FinalMapEntries = 1 },
	}
	for i, mut := range muts {
		cfg := DefaultRecursiveMapConfig(1 << 16)
		mut(&cfg)
		if _, err := NewRecursiveMap(cfg); err == nil {
			t.Errorf("mutation %d: invalid config accepted", i)
		}
	}
}
