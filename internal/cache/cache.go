// Package cache implements a set-associative write-back LLC with LRU
// replacement. The main simulator consumes post-LLC traces (MPKI in
// Table III is measured at main memory), so this cache is used by the
// tracegen tool to distill raw address streams into memory traces, and by
// examples that want an end-to-end core-to-memory picture.
package cache

import (
	"fmt"

	"doram/internal/stats"
)

// Result describes the outcome of one cache access.
type Result struct {
	Hit bool
	// Writeback is set when a dirty victim line was evicted; VictimAddr is
	// its byte address.
	Writeback  bool
	VictimAddr uint64
}

// Stats aggregates cache activity.
type Stats struct {
	Accesses   stats.Counter
	Hits       stats.Counter
	Misses     stats.Counter
	Writebacks stats.Counter
}

// MissRate returns misses/accesses, or 0 with no accesses.
func (s *Stats) MissRate() float64 {
	if s.Accesses.Value() == 0 {
		return 0
	}
	return float64(s.Misses.Value()) / float64(s.Accesses.Value())
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // higher = more recently used
}

// Cache is a set-associative write-back cache with LRU replacement.
type Cache struct {
	sets      [][]line
	assoc     int
	lineBytes uint64
	setMask   uint64
	clock     uint64
	stats     Stats
}

// New builds a cache of sizeBytes with the given associativity and line
// size. It panics when the geometry is not a power-of-two set count, a
// configuration programming error.
func New(sizeBytes uint64, assoc int, lineBytes uint64) *Cache {
	if assoc <= 0 || lineBytes == 0 || sizeBytes == 0 {
		panic("cache: size, associativity and line bytes must be positive")
	}
	nSets := sizeBytes / (uint64(assoc) * lineBytes)
	if nSets == 0 || nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d must be a nonzero power of two", nSets))
	}
	sets := make([][]line, nSets)
	for i := range sets {
		sets[i] = make([]line, assoc)
	}
	return &Cache{sets: sets, assoc: assoc, lineBytes: lineBytes, setMask: nSets - 1}
}

// Stats returns the cache's counters.
func (c *Cache) Stats() *Stats { return &c.stats }

// Access performs one read or write and returns the outcome. On a miss the
// line is filled (allocate-on-write policy).
func (c *Cache) Access(addr uint64, write bool) Result {
	c.clock++
	c.stats.Accesses.Inc()
	lineAddr := addr / c.lineBytes
	set := lineAddr & c.setMask
	tag := lineAddr >> 0 // full line address as tag; set bits are redundant but harmless
	ways := c.sets[set]

	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = c.clock
			if write {
				ways[i].dirty = true
			}
			c.stats.Hits.Inc()
			return Result{Hit: true}
		}
	}
	c.stats.Misses.Inc()

	// Choose victim: first invalid way, else LRU.
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	res := Result{}
	if ways[victim].valid && ways[victim].dirty {
		res.Writeback = true
		res.VictimAddr = ways[victim].tag * c.lineBytes
		c.stats.Writebacks.Inc()
	}
	ways[victim] = line{tag: tag, valid: true, dirty: write, lru: c.clock}
	return res
}

// Contains reports whether addr's line is resident (for tests).
func (c *Cache) Contains(addr uint64) bool {
	lineAddr := addr / c.lineBytes
	ways := c.sets[lineAddr&c.setMask]
	for i := range ways {
		if ways[i].valid && ways[i].tag == lineAddr {
			return true
		}
	}
	return false
}
