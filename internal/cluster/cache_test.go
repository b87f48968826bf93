package cluster

import (
	"bytes"
	"path/filepath"
	"testing"

	"doram/internal/simsvc"
)

// runToDone submits a spec and waits for it to finish, returning the
// job's result bytes.
func runToDone(t *testing.T, c *Coordinator, spec []byte) []byte {
	t.Helper()
	st := waitState(t, c, submit(t, c, spec).ID, simsvc.StateDone)
	data, err := c.Result(st.ID)
	if err != nil {
		t.Fatalf("result %s: %v", st.ID, err)
	}
	return data
}

// TestClusterResultCacheHit: re-submitting an identical spec completes
// synchronously from the coordinator cache — no second dispatch, no
// worker round trip, Node reported as "cache".
func TestClusterResultCacheHit(t *testing.T) {
	gate := newGateTransport()
	w := newFakeWorker(t, simsvc.Config{Workers: 1, RunSim: instantSim})
	c := testCoordinator(t, nil, gate, CoordinatorConfig{}, w)

	want := runToDone(t, c, specJSON(42))
	callsBefore := gate.count(w.url())

	st := submit(t, c, specJSON(42))
	if st.State != simsvc.StateDone {
		t.Fatalf("resubmitted job is %s, want synchronous %s", st.State, simsvc.StateDone)
	}
	if st.Node != "cache" {
		t.Errorf("resubmitted job Node = %q, want \"cache\"", st.Node)
	}
	got, err := c.Result(st.ID)
	if err != nil {
		t.Fatalf("cached result: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("cached result differs:\n%s\nvs\n%s", got, want)
	}
	if n := gate.count(w.url()); n != callsBefore {
		t.Errorf("cache hit still reached the worker: %d calls, had %d", n, callsBefore)
	}
	cv := c.Registry().CounterValues()
	if cv["simsvc.cache.hits"] != 1 {
		t.Errorf("simsvc.cache.hits = %d, want 1", cv["simsvc.cache.hits"])
	}
	if cv["simsvc.cache.entries"] != 1 {
		t.Errorf("simsvc.cache.entries = %d, want 1", cv["simsvc.cache.entries"])
	}
	// A different spec is a miss and must dispatch normally.
	if st2 := submit(t, c, specJSON(43)); st2.State == simsvc.StateDone {
		t.Errorf("unseen spec completed without running")
	}
}

// TestClusterCacheSurvivesRestart is the restart end-to-end: complete a
// job on coordinator A, snapshot the cache on drain, start coordinator B
// from the snapshot with no usable workers, and re-submit the identical
// spec — it must complete instantly with byte-identical results, proving
// the cluster's accumulated work survives a coordinator restart.
func TestClusterCacheSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	gate := newGateTransport()
	w := newFakeWorker(t, simsvc.Config{Workers: 1, RunSim: instantSim})

	a := testCoordinator(t, nil, gate, CoordinatorConfig{}, w)
	want := runToDone(t, a, specJSON(7))
	if err := a.Service().SaveCache(path); err != nil { // doramd's drain path
		t.Fatalf("save: %v", err)
	}

	// "Restart": a fresh coordinator, the old worker unreachable — only
	// the snapshot connects them.
	gate.block(w.url())
	b := testCoordinator(t, nil, gate, CoordinatorConfig{})
	n, err := b.Service().LoadCache(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if n != 1 {
		t.Fatalf("loaded %d entries, want 1", n)
	}

	st := submit(t, b, specJSON(7))
	if st.State != simsvc.StateDone {
		t.Fatalf("job is %s after restart, want %s from the cache", st.State, simsvc.StateDone)
	}
	got, err := b.Result(st.ID)
	if err != nil {
		t.Fatalf("result after restart: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("result changed across restart:\n%s\nvs\n%s", got, want)
	}
	if cv := b.Registry().CounterValues(); cv["simsvc.cache.hits"] != 1 {
		t.Errorf("simsvc.cache.hits = %d after restart hit, want 1", cv["simsvc.cache.hits"])
	}
}
