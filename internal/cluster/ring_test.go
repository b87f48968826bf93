package cluster

import (
	"fmt"
	"testing"

	"doram"
)

func specHash(seed uint64) string {
	return doram.Params{Scheme: doram.SchemeDORAM, Benchmark: "face", SplitK: 1, Seed: seed}.Hash()
}

// TestRingOwnerStable: a key's owner does not change when unrelated nodes
// stay put, and removing a non-owner never moves the key.
func TestRingOwnerStable(t *testing.T) {
	r := newRing(64)
	nodes := []string{"http://a:1", "http://b:1", "http://c:1"}
	for _, n := range nodes {
		r.add(n)
	}
	for seed := uint64(1); seed <= 50; seed++ {
		key := specHash(seed)
		owner := r.owner(key)
		if owner == "" {
			t.Fatalf("seed %d: no owner on a 3-node ring", seed)
		}
		for _, n := range nodes {
			if n == owner {
				continue
			}
			r.remove(n)
			if got := r.owner(key); got != owner {
				t.Errorf("seed %d: removing non-owner %s moved the key %s → %s", seed, n, owner, got)
			}
			r.add(n)
			if got := r.owner(key); got != owner {
				t.Errorf("seed %d: re-adding %s moved the key %s → %s", seed, n, owner, got)
			}
		}
	}
}

// TestRingFailoverSuccessor: when a key's owner is removed, the key moves
// to exactly its next successor — the re-dispatch target the coordinator
// uses.
func TestRingFailoverSuccessor(t *testing.T) {
	r := newRing(64)
	for i := 0; i < 5; i++ {
		r.add(fmt.Sprintf("http://n%d:1", i))
	}
	for seed := uint64(1); seed <= 50; seed++ {
		key := specHash(seed)
		succ := r.successors(key, 2)
		if len(succ) != 2 {
			t.Fatalf("seed %d: got %d successors, want 2", seed, len(succ))
		}
		r.remove(succ[0])
		if got := r.owner(key); got != succ[1] {
			t.Errorf("seed %d: after owner death key went to %s, want successor %s", seed, got, succ[1])
		}
		r.add(succ[0])
	}
}

// TestRingDistribution: virtual nodes spread keys across workers — no
// node owns everything, none starves completely at figure-sweep scale.
func TestRingDistribution(t *testing.T) {
	r := newRing(64)
	nodes := 4
	for i := 0; i < nodes; i++ {
		r.add(fmt.Sprintf("http://n%d:1", i))
	}
	counts := make(map[string]int)
	const keys = 400
	for seed := uint64(1); seed <= keys; seed++ {
		counts[r.owner(specHash(seed))]++
	}
	if len(counts) != nodes {
		t.Fatalf("only %d of %d nodes own keys: %v", len(counts), nodes, counts)
	}
	for n, c := range counts {
		if c < keys/nodes/4 || c > keys*3/nodes {
			t.Errorf("node %s owns %d of %d keys — distribution badly skewed: %v", n, c, keys, counts)
		}
	}
}

// TestRingSuccessorsDistinct: successors never repeat a node and cap at
// ring membership.
func TestRingSuccessorsDistinct(t *testing.T) {
	r := newRing(16)
	if got := r.successors(specHash(1), 3); got != nil {
		t.Errorf("empty ring returned successors %v", got)
	}
	r.add("http://a:1")
	r.add("http://b:1")
	succ := r.successors(specHash(1), 10)
	if len(succ) != 2 {
		t.Fatalf("got %d successors on a 2-node ring, want 2", len(succ))
	}
	if succ[0] == succ[1] {
		t.Errorf("duplicate node in successor list: %v", succ)
	}
}

// owner returns the key's owning node ("" on an empty ring).
func (r *ring) owner(key string) string {
	s := r.successors(key, 1)
	if len(s) == 0 {
		return ""
	}
	return s[0]
}
