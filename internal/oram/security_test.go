package oram

import (
	"math"
	"testing"

	"doram/internal/oram/backend"
	"doram/internal/xrand"
)

// TestObliviousnessLeafSequenceIndependentOfWorkload checks the protocol's
// core security property on the address stream: the distribution of
// accessed leaves is indistinguishable between two very different request
// patterns (single hot block vs uniform random blocks). An observer of
// the physical addresses learns nothing about the logical stream.
func TestObliviousnessLeafSequenceIndependentOfWorkload(t *testing.T) {
	p := Params{Levels: 6, Z: 4, BlockSize: 64, TopCacheLevels: 1, StashCapacity: 100}
	const rounds = 20000
	nLeaves := p.NumLeaves()

	leafCounts := func(gen func(*Sampler, int) uint64) []float64 {
		s := NewSampler(p, 31337)
		counts := make([]float64, nLeaves)
		for i := 0; i < rounds; i++ {
			counts[gen(s, i)]++
		}
		return counts
	}
	hot := leafCounts(func(s *Sampler, _ int) uint64 { return s.Access(7).Leaf })
	rng := xrand.New(5)
	uniform := leafCounts(func(s *Sampler, _ int) uint64 {
		return s.Access(rng.Uint64n(1000)).Leaf
	})

	// Chi-square style comparison of each distribution against uniform.
	expect := float64(rounds) / float64(nLeaves)
	chi2 := func(counts []float64) float64 {
		var x float64
		for _, c := range counts {
			d := c - expect
			x += d * d / expect
		}
		return x
	}
	// 64 leaves -> 63 degrees of freedom; p=0.001 critical value ~ 103.
	const critical = 103.0
	if c := chi2(hot); c > critical {
		t.Fatalf("hot-block leaf distribution non-uniform: chi2 = %.1f > %.1f", c, critical)
	}
	if c := chi2(uniform); c > critical {
		t.Fatalf("uniform-workload leaf distribution non-uniform: chi2 = %.1f > %.1f", c, critical)
	}
}

// TestObliviousnessConsecutiveLeavesUncorrelated checks that accessing the
// same block twice in a row does not correlate consecutive path choices
// (the remap-before-reuse rule).
func TestObliviousnessConsecutiveLeavesUncorrelated(t *testing.T) {
	p := Params{Levels: 5, Z: 4, BlockSize: 64, TopCacheLevels: 1, StashCapacity: 100}
	s := NewSampler(p, 99)
	const rounds = 30000
	same := 0
	prev := s.Access(3).Leaf
	for i := 1; i < rounds; i++ {
		leaf := s.Access(3).Leaf
		if leaf == prev {
			same++
		}
		prev = leaf
	}
	// With 32 leaves, repeats happen with probability 1/32.
	frac := float64(same) / float64(rounds-1)
	if math.Abs(frac-1.0/32) > 0.01 {
		t.Fatalf("consecutive-leaf repeat rate %.4f, want ~%.4f (1/leaves)", frac, 1.0/32)
	}
}

// TestTraceRevealsNothingAboutOperation checks that read and write
// accesses produce identically shaped traces (the request-type hiding of
// §III-B item 1 at the protocol level).
func TestTraceRevealsNothingAboutOperation(t *testing.T) {
	p := smallParams()
	c := newTestClient(t, p, false)
	_, wTrace, err := c.Access(OpWrite, 5, []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	_, rTrace, err := c.Access(OpRead, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(wTrace.ReadNodes) != len(rTrace.ReadNodes) ||
		len(wTrace.WriteNodes) != len(rTrace.WriteNodes) {
		t.Fatalf("write trace shape (%d/%d) differs from read trace shape (%d/%d)",
			len(wTrace.ReadNodes), len(wTrace.WriteNodes),
			len(rTrace.ReadNodes), len(rTrace.WriteNodes))
	}
}

// TestDummyTraceIndistinguishableFromReal checks that timing-protection
// dummies touch exactly as many nodes as real accesses under every
// eviction strategy, in both the trace sampler and the functional client.
// A strategy that schedules extra eviction paths must schedule them for
// dummies too, or a real access is visibly larger on the bus. Fork Path
// stays off: with it, the count depends on the previous leaf.
func TestDummyTraceIndistinguishableFromReal(t *testing.T) {
	p := smallParams()
	sameShape := func(t *testing.T, who string, real, dummy Trace) {
		t.Helper()
		if len(real.ReadNodes) != len(dummy.ReadNodes) || len(real.WriteNodes) != len(dummy.WriteNodes) {
			t.Errorf("%s: real access touches %d/%d read/write nodes, dummy %d/%d", who,
				len(real.ReadNodes), len(real.WriteNodes), len(dummy.ReadNodes), len(dummy.WriteNodes))
		}
	}
	for _, name := range backend.Evictions() {
		t.Run(name, func(t *testing.T) {
			s := NewSampler(p, 4)
			if err := s.SetEviction(name); err != nil {
				t.Fatal(err)
			}
			sameShape(t, "sampler", s.Access(12), s.Dummy())

			evict, err := backend.NewEviction(name)
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewClientWithOptions(p, ClientOptions{
				Storage: backend.NewMemStorage(p.NumNodes()), Key: testKey, Eviction: evict, Seed: 4})
			if err != nil {
				t.Fatal(err)
			}
			_, real, err := c.Access(OpWrite, 12, []byte{1})
			if err != nil {
				t.Fatal(err)
			}
			dummy, err := c.DummyAccess()
			if err != nil {
				t.Fatal(err)
			}
			sameShape(t, "client", real, dummy)
		})
	}
}
