package evtrace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace-event export. The format is the Trace Event JSON object form
// ({"traceEvents": [...]}) understood by Perfetto and chrome://tracing:
// one "M" thread_name metadata record per track plus one "X" complete event
// per span. Timestamps are CPU cycles written into the microsecond field —
// Perfetto renders them as µs; read "1 µs" as "1 cycle" (documented in
// DESIGN.md). Track names map to tids by sorted order so output is
// deterministic and byte-stable for golden tests.

type chromeEvent struct {
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	Name string         `json:"name"`
	TS   uint64         `json:"ts"`
	Dur  *uint64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// WriteChrome writes the trace as Chrome trace-event JSON. Safe on a nil
// trace (writes an empty traceEvents array).
func (tr *Trace) WriteChrome(w io.Writer) error {
	f := chromeFile{TraceEvents: []chromeEvent{}}
	if tr != nil {
		tids := trackTIDs(tr.Events)
		names := make([]string, 0, len(tids))
		for name := range tids {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			f.TraceEvents = append(f.TraceEvents, chromeEvent{
				Ph: "M", PID: 0, TID: tids[name], Name: "thread_name",
				Args: map[string]any{"name": name},
			})
		}
		evs := make([]Event, len(tr.Events))
		copy(evs, tr.Events)
		// Sort by (ts, track, longer-first, name, id) so parents precede
		// their children and output is deterministic.
		sort.SliceStable(evs, func(i, j int) bool {
			a, b := evs[i], evs[j]
			if a.Start != b.Start {
				return a.Start < b.Start
			}
			if a.Track != b.Track {
				return a.Track < b.Track
			}
			da, db := a.End-a.Start, b.End-b.Start
			if da != db {
				return da > db
			}
			if a.Name != b.Name {
				return a.Name < b.Name
			}
			return a.ID < b.ID
		})
		for _, ev := range evs {
			dur := ev.End - ev.Start
			args := map[string]any{"id": ev.ID, "v": ev.Arg}
			if ev.Overlap {
				// Occupancy intervals keep their request linkage under
				// "req"; the validator's nesting check keys on "id" only.
				args = map[string]any{"req": ev.ID, "v": ev.Arg}
			}
			f.TraceEvents = append(f.TraceEvents, chromeEvent{
				Ph: "X", PID: 0, TID: tids[ev.Track], Cat: ev.Cat, Name: ev.Name,
				TS: ev.Start, Dur: &dur,
				Args: args,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

func trackTIDs(events []Event) map[string]int {
	names := make(map[string]bool)
	for _, ev := range events {
		names[ev.Track] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	tids := make(map[string]int, len(sorted))
	for i, n := range sorted {
		tids[n] = i + 1 // tid 0 renders oddly in some viewers
	}
	return tids
}

// ValidateChromeJSON checks an exported trace file: parseable, only X/M
// phases, non-negative durations with no span ending past 2^64, a
// thread_name record for every tid used, file-order non-decreasing
// timestamps, and proper nesting of same-ID spans within a track
// (touching boundaries allowed). This is the CI gate run by doramsim
// -trace-validate.
func ValidateChromeJSON(data []byte) error {
	var f chromeFile
	if err := json.Unmarshal(data, &f); err != nil {
		return errorf("parse: %v", err)
	}
	named := make(map[int]bool)
	type openSpan struct{ start, end uint64 }
	stacks := make(map[string][]openSpan) // key: tid/id
	var lastTS uint64
	seenX := false
	for i, ev := range f.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				named[ev.TID] = true
			}
		case "X":
			if ev.Dur == nil {
				return errorf("event %d: X event missing dur", i)
			}
			if !named[ev.TID] {
				return errorf("event %d: tid %d has no thread_name metadata", i, ev.TID)
			}
			if seenX && ev.TS < lastTS {
				return errorf("event %d: timestamp %d precedes %d", i, ev.TS, lastTS)
			}
			seenX = true
			lastTS = ev.TS
			end := ev.TS + *ev.Dur
			if end < ev.TS {
				return errorf("event %d: span at %d with duration %d ends past 2^64", i, ev.TS, *ev.Dur)
			}
			id := spanID(ev.Args)
			if id == 0 {
				continue // unkeyed spans (refresh) need no nesting check
			}
			key := fmt.Sprintf("%d/%d", ev.TID, id)
			stack := stacks[key]
			// Pop finished ancestors, then require containment in the
			// innermost still-open span.
			for len(stack) > 0 && stack[len(stack)-1].end <= ev.TS {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && end > stack[len(stack)-1].end {
				return errorf("event %d: span [%d,%d) escapes enclosing span ending %d on %s",
					i, ev.TS, end, stack[len(stack)-1].end, key)
			}
			stacks[key] = append(stack, openSpan{ev.TS, end})
		default:
			return errorf("event %d: unexpected phase %q", i, ev.Ph)
		}
	}
	return nil
}

func spanID(args map[string]any) uint64 {
	v, ok := args["id"]
	if !ok {
		return 0
	}
	switch n := v.(type) {
	case float64:
		return uint64(n)
	case json.Number:
		u, _ := n.Int64()
		return uint64(u)
	}
	return 0
}
