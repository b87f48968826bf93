package backend

import "testing"

// TestNodeLevelBoundaries checks Level at the first and last node of
// every level, including the last representable node, whose level-64
// bound does not fit in a uint64.
func TestNodeLevelBoundaries(t *testing.T) {
	for l := 0; l < 64; l++ {
		first := NodeID(uint64(1)<<uint(l) - 1)
		last := NodeID(uint64(1)<<uint(l+1) - 2)
		if got := first.Level(); got != l {
			t.Errorf("level of node %d = %d, want %d", first, got, l)
		}
		if got := last.Level(); got != l {
			t.Errorf("level of node %d = %d, want %d", last, got, l)
		}
	}
	if got := (^NodeID(0)).Level(); got != 64 {
		t.Errorf("level of node 2^64-1 = %d, want 64", got)
	}
}
