package simsvc

import (
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"doram"
)

// resultCache is an LRU map from canonical spec hash to completed result
// and its API document. Soundness rests on the simulator's determinism:
// equal canonical specs (same knobs, same seed) produce bit-identical
// results — the differential suite enforces replay equality — so serving a
// cached result is indistinguishable from re-simulating. Results and their
// documents are immutable once published; hits hand out the shared
// pointer and slice.
//
// Not safe for concurrent use: the owning Service calls it under its lock.
type resultCache struct {
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry struct {
	hash string
	res  *doram.SimResult
	doc  []byte // res encoded as GET /v1/jobs/{id}/result serves it
}

// newResultCache builds a cache holding up to cap results; cap <= 0
// disables caching entirely (every get misses, every put is dropped).
func newResultCache(cap int) *resultCache {
	return &resultCache{cap: cap, ll: list.New(), items: make(map[string]*list.Element)}
}

func (c *resultCache) get(hash string) (*cacheEntry, bool) {
	el, ok := c.items[hash]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

func (c *resultCache) put(hash string, res *doram.SimResult, doc []byte) {
	if c.cap <= 0 {
		return
	}
	if el, ok := c.items[hash]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		e.res, e.doc = res, doc
		return
	}
	c.items[hash] = c.ll.PushFront(&cacheEntry{hash: hash, res: res, doc: doc})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).hash)
	}
}

func (c *resultCache) len() int { return c.ll.Len() }

// cacheSnapshotVersion is the snapshot format version; loads reject other
// versions rather than guessing.
const cacheSnapshotVersion = 1

// cacheSnapshot is the on-disk form of the result cache: each result
// document, encoded as GET /v1/jobs/{id}/result serves it, keyed by spec
// hash. The documents are JSON strings rather than embedded objects, so
// they keep their exact bytes; it is the format cluster coordinators have
// always written, and their snapshots load here unchanged.
type cacheSnapshot struct {
	Version int               `json:"version"`
	Results map[string]string `json:"results"`
}

// SaveCache writes the result cache to path as a JSON snapshot,
// atomically (temp file + rename), so a crash mid-save never truncates a
// previous good snapshot. Each result's document is written as it was
// published, not re-encoded. doramd saves on drain with -cache-file.
func (s *Service) SaveCache(path string) error {
	s.mu.Lock()
	entries := make([]cacheEntry, 0, s.cache.len())
	for el := s.cache.ll.Front(); el != nil; el = el.Next() {
		entries = append(entries, *el.Value.(*cacheEntry))
	}
	s.mu.Unlock()

	snap := cacheSnapshot{Version: cacheSnapshotVersion, Results: make(map[string]string, len(entries))}
	for _, e := range entries { // documents are immutable: copy outside the lock
		snap.Results[e.hash] = string(e.doc)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("simsvc: cache snapshot: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("simsvc: cache snapshot: %w", err)
	}
	_, werr := tmp.Write(data)
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("simsvc: cache snapshot %s: %w", path, werr)
	}
	return nil
}

// LoadCache installs the results of a snapshot written by SaveCache and
// returns how many it loaded. A missing file is not an error — a fresh
// deployment simply starts cold. Entries whose key is not a spec hash (64
// lower-case hex characters, as doram.Params.Hash writes it) or whose
// document does not decode are skipped: no lookup could ever hit them.
// Each loaded result is encoded afresh, so it is served in canonical form
// whatever whitespace or unknown fields its snapshot document carried.
func (s *Service) LoadCache(path string) (int, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("simsvc: cache load: %w", err)
	}
	var snap cacheSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return 0, fmt.Errorf("simsvc: cache load %s: %w", path, err)
	}
	if snap.Version != cacheSnapshotVersion {
		return 0, fmt.Errorf("simsvc: cache load %s: snapshot version %d, want %d",
			path, snap.Version, cacheSnapshotVersion)
	}
	entries := make([]cacheEntry, 0, len(snap.Results))
	for hash, doc := range snap.Results {
		res := new(doram.SimResult)
		if !isSpecHash(hash) || json.Unmarshal([]byte(doc), res) != nil {
			continue
		}
		canon, err := encodeJSON(res)
		if err != nil {
			continue
		}
		entries = append(entries, cacheEntry{hash: hash, res: res, doc: canon})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		s.cache.put(e.hash, e.res, e.doc)
	}
	return len(entries), nil
}

// isSpecHash reports whether key has the form of doram.Params.Hash: 64
// lower-case hex characters.
func isSpecHash(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
