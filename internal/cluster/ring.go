// Package cluster turns a fleet of doramd workers into one logical
// simulation service: workers join a coordinator and heartbeat; the
// coordinator is a simsvc job service whose simulations run on the fleet.
// It consistent-hashes job specs onto workers by the canonical
// doram.Params hash (so identical specs land on the same worker and hit
// its result cache), and re-dispatches work away from workers that die,
// drain, or stop responding. Robustness is structural: jobs are
// deterministic and idempotent in their spec hash, so any job can be
// re-run anywhere with a bit-identical outcome — which is what makes
// failover, hedging and worker restarts safe.
//
// The pieces: ring.go (consistent hashing), breaker.go (per-worker
// circuit breaker), coordinator.go (the service, membership and worker
// event fan-in), dispatch.go (the fleet dispatcher: placement, failover,
// hedging), http.go (membership endpoints and the merged /varz) and
// worker.go (the join/heartbeat loop doramd runs in -join mode).
// DESIGN.md §13 has the full state machines.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"hash/fnv"
	"sort"
	"strconv"
)

// ring is a consistent-hash ring mapping canonical spec hashes to node
// IDs. Each node owns ringReplicas pseudo-random points; a key belongs to
// the first point clockwise from its position. Removing a node moves only
// that node's keys (to their ring successors), which is exactly the
// failover property the coordinator wants: when a worker dies, its jobs
// shift to the next node and everyone else's cache affinity is untouched.
//
// Not safe for concurrent use: the Coordinator calls it under its lock.
type ring struct {
	replicas int
	points   []ringPoint // sorted by pos
	nodes    map[string]bool
}

type ringPoint struct {
	pos  uint64
	node string
}

func newRing(replicas int) *ring {
	if replicas <= 0 {
		replicas = 64
	}
	return &ring{replicas: replicas, nodes: make(map[string]bool)}
}

// pointHash places one virtual node on the ring. SHA-256 (the same
// family keying the spec hashes) keeps virtual nodes uniform even though
// node IDs are short, similar URLs — FNV clusters badly on those.
func pointHash(node string, replica int) uint64 {
	sum := sha256.Sum256([]byte(node + "#" + strconv.Itoa(replica)))
	return binary.BigEndian.Uint64(sum[:8])
}

// keyPos places a key on the ring. Canonical spec hashes are hex SHA-256,
// already uniform — their leading 64 bits are used directly; anything
// else falls back to FNV.
func keyPos(key string) uint64 {
	if len(key) >= 16 {
		if v, err := strconv.ParseUint(key[:16], 16, 64); err == nil {
			return v
		}
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

func (r *ring) add(node string) {
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{pos: pointHash(node, i), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].pos < r.points[j].pos })
}

func (r *ring) remove(node string) {
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

func (r *ring) size() int { return len(r.nodes) }

// successors returns up to n distinct nodes in ring order starting at the
// key's owner — the dispatch preference list: owner first (cache
// affinity), then the nodes that would inherit the key if the owner
// vanished.
func (r *ring) successors(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	pos := keyPos(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for range r.points {
		if i == len(r.points) {
			i = 0
		}
		if node := r.points[i].node; !seen[node] {
			seen[node] = true
			out = append(out, node)
			if len(out) == n {
				break
			}
		}
		i++
	}
	return out
}
