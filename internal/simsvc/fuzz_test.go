package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzLoadCache feeds arbitrary bytes to LoadCache as a snapshot file. It
// must never panic, a failed load installs nothing, and every key in the
// result cache afterwards is 64 lower-case hex characters — the only form
// a spec-hash lookup can hit. One service lives across inputs, as a
// coordinator's does across restarts, so a bad key any input let in stays
// visible to every later check. Seeds live in
// testdata/fuzz/FuzzLoadCache.
func FuzzLoadCache(f *testing.F) {
	s := New(Config{Workers: 1})
	f.Cleanup(func() { s.Close(context.Background()) })
	path := filepath.Join(f.TempDir(), "results.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if n, err := s.LoadCache(path); err != nil && n != 0 {
			t.Fatalf("failed load reported %d results: %v", n, err)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		for key := range s.cache.items {
			if len(key) != 64 || strings.Trim(key, "0123456789abcdef") != "" {
				t.Fatalf("cache holds key %q, not a spec hash", key)
			}
		}
	})
}

// FuzzSSEScanner checks the event-stream client and the resume cursor.
// Scanning any byte stream never panics and ends: every event needs a
// field line, so there are at most as many events as lines. An event
// written by writeSSE scans back with its id, kind and data intact. The
// cursor parses from the Last-Event-ID header and from the ?after=
// fallback alike, as the unsigned decimal value or 0.
func FuzzSSEScanner(f *testing.F) {
	f.Add([]byte("id: 3\nevent: job\ndata: {\"seq\":3}\n\n: hb\n\n"), uint64(3), "job-1", false, "3")
	f.Add([]byte("data: a\ndata: b\n\n\n\nid:\n"), uint64(0), "", true, "")
	f.Add([]byte(": only a comment\r\n\r\nevent:service"), ^uint64(0), "j\n\"x", false, "18446744073709551616")
	f.Fuzz(func(t *testing.T, stream []byte, seq uint64, jobID string, service bool, cursor string) {
		lines := bytes.Count(stream, []byte("\n")) + 1
		sc := NewSSEScanner(bytes.NewReader(stream))
		for n := 0; ; n++ {
			if n > lines {
				t.Fatalf("scan returned %d events from %d lines", n, lines)
			}
			if _, err := sc.Next(); err != nil {
				break
			}
		}

		ev := Event{Seq: seq, Kind: EventJob, JobID: jobID}
		if service {
			ev.Kind = EventService
		}
		var buf bytes.Buffer
		if err := writeSSE(&buf, ev); err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewSSEScanner(&buf).Next()
		if err != nil || got.ID != strconv.FormatUint(seq, 10) || got.Event != ev.Kind || got.Data != string(data) {
			t.Fatalf("round trip of %+v: got %+v, %v", ev, got, err)
		}

		want, err := strconv.ParseUint(cursor, 10, 64)
		if err != nil {
			want = 0
		}
		byHeader := httptest.NewRequest("GET", "/events", nil)
		byHeader.Header.Set("Last-Event-ID", cursor)
		byQuery := httptest.NewRequest("GET", "/events?after="+url.QueryEscape(cursor), nil)
		if h, q := lastEventID(byHeader), lastEventID(byQuery); h != want || q != want {
			t.Fatalf("cursor %q: header %d, query %d, want %d", cursor, h, q, want)
		}
	})
}
