package main

import (
	"strings"
	"testing"
)

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

func TestCheckFlagConflicts(t *testing.T) {
	cases := []struct {
		name       string
		explicit   map[string]bool
		traceJSON  string
		traceLimit int
		wantErr    string // "" = accepted
	}{
		{name: "plain run", explicit: set("scheme", "bench", "k")},
		{name: "chaos alone", explicit: set("chaos")},
		{name: "chaos with seed", explicit: set("chaos", "seed")},
		{name: "chaos with scheme", explicit: set("chaos", "scheme"), wantErr: "-scheme does not apply"},
		{name: "chaos with metrics", explicit: set("chaos", "metrics-json"), wantErr: "-metrics-json does not apply"},
		{name: "chaos with bench", explicit: set("chaos", "bench"), wantErr: "-bench does not apply"},
		{name: "chaos names what applies", explicit: set("chaos", "trace"), wantErr: "only -seed, -eviction and -encryptor do"},
		{name: "chaos with eviction and encryptor", explicit: set("chaos", "seed", "eviction", "encryptor")},
		{name: "encryptor without chaos", explicit: set("encryptor"), wantErr: "add -chaos"},
		{name: "encryptor on a simulation", explicit: set("scheme", "encryptor"), wantErr: "add -chaos"},
		{name: "eviction on a simulation", explicit: set("scheme", "eviction")},
		{name: "sample without sink", explicit: set("trace-sample"), wantErr: "add -trace-json"},
		{name: "limit without sink", explicit: set("trace-limit"), wantErr: "add -trace-json"},
		{name: "sample with trace-json", explicit: set("trace-sample", "trace-json"), traceJSON: "out.json", traceLimit: 200000},
		{name: "limit with trace-top", explicit: set("trace-limit", "trace-top"), wantErr: "add -trace-json"},
		{name: "limit with trace-json", explicit: set("trace-limit", "trace-json"), traceJSON: "out.json", traceLimit: 1200},
		{name: "trace-json without ring", explicit: set("trace-limit", "trace-json"), traceJSON: "out.json", wantErr: "-trace-limit >= 1"},
		{name: "validate alone", explicit: set("trace-validate")},
		{name: "validate with scheme", explicit: set("trace-validate", "scheme"), wantErr: "-scheme does not apply"},
	}
	for _, tc := range cases {
		err := checkFlagConflicts(tc.explicit, tc.traceJSON, tc.traceLimit)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.wantErr)
		}
	}
}
