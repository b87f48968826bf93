package evtrace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzValidateChromeJSON feeds arbitrary bytes to the trace validator: it
// must never panic, and every span of a trace it accepts must end at or
// after its start. Seeds are the D-ORAM golden export
// (testdata/trace_golden.json at the repository root), its track records
// with its first spans, and a parent holding a child whose end would
// wrap.
func FuzzValidateChromeJSON(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "trace_golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	var whole, head chromeFile
	if err := json.Unmarshal(golden, &whole); err != nil {
		f.Fatal(err)
	}
	spans := 0
	for _, ev := range whole.TraceEvents {
		if ev.Ph == "X" {
			if spans == 16 {
				continue
			}
			spans++
		}
		head.TraceEvents = append(head.TraceEvents, ev)
	}
	short, err := json.Marshal(head)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(short)
	f.Add([]byte(`{"traceEvents":[{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"a"}},{"ph":"X","pid":0,"tid":1,"name":"p","ts":0,"dur":100,"args":{"id":1}},{"ph":"X","pid":0,"tid":1,"name":"c","ts":50,"dur":18446744073709551615,"args":{"id":1}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if ValidateChromeJSON(data) != nil {
			return
		}
		var got chromeFile
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("accepted a trace that does not parse: %v", err)
		}
		for i, ev := range got.TraceEvents {
			if ev.Ph == "X" && ev.TS+*ev.Dur < ev.TS {
				t.Fatalf("accepted event %d: span at %d with duration %d wraps", i, ev.TS, *ev.Dur)
			}
		}
	})
}
