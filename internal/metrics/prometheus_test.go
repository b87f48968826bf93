package metrics

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// seededDump builds a deterministic dump exercising every exposition
// shape: plain counters, a name needing sanitization, and histograms with
// and without overflow samples.
func seededDump() *Dump {
	r := New()
	r.SyncCounter("simsvc.jobs.completed").Add(7)
	r.SyncCounter("simsvc.queue.depth").Add(3)
	r.SyncCounter("9weird name-with/chars").Add(1)
	h := r.Histogram("simsvc.stage.oram.total_cycles", []uint64{4, 16, 64})
	for _, v := range []uint64{1, 3, 5, 17, 100, 200} {
		h.Observe(v)
	}
	empty := r.Histogram("simsvc.stage.oram.empty", []uint64{1, 2})
	_ = empty
	return r.Dump()
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := seededDump().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	golden := filepath.Join("testdata", "prometheus.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("writing golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	// sampleRe matches one sample line: name, optional {labels}, value.
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	labelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="((?:[^"\\\n]|\\\\|\\"|\\n)*)"$`)
)

// ValidatePrometheus is the promtool-free exposition linter: every line
// must be a well-formed comment or sample, histogram buckets must be
// cumulative (monotonically non-decreasing, ending at _count), and every
// TYPE declaration must precede its samples.
func validatePrometheus(t *testing.T, text string) {
	t.Helper()
	types := map[string]string{}
	bucketLast := map[string]uint64{} // histogram name -> last cumulative bucket
	bucketMax := map[string]uint64{}
	counts := map[string]uint64{}
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Errorf("line %d: empty line", ln+1)
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 || !metricNameRe.MatchString(parts[2]) {
				t.Errorf("line %d: malformed TYPE line %q", ln+1, line)
				continue
			}
			switch parts[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("line %d: unknown TYPE %q", ln+1, parts[3])
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("line %d: unknown comment %q", ln+1, line)
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: malformed sample %q", ln+1, line)
			continue
		}
		name, labels, value := m[1], m[2], m[3]
		if labels != "" {
			for _, lv := range strings.Split(strings.Trim(labels, "{}"), ",") {
				if !labelRe.MatchString(lv) {
					t.Errorf("line %d: malformed label %q", ln+1, lv)
				}
			}
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suffix); ok && types[b] == "histogram" {
				base = b
				break
			}
		}
		if _, declared := types[base]; !declared {
			t.Errorf("line %d: sample %q has no preceding TYPE", ln+1, name)
		}
		switch {
		case types[base] == "histogram" && strings.HasSuffix(name, "_bucket"):
			v, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				t.Errorf("line %d: bucket value %q not an integer", ln+1, value)
				continue
			}
			if v < bucketLast[base] {
				t.Errorf("line %d: bucket count %d below previous %d — not cumulative", ln+1, v, bucketLast[base])
			}
			bucketLast[base] = v
			bucketMax[base] = v
			if strings.Contains(labels, `le="+Inf"`) {
				// +Inf must carry the full population.
				counts[base+"+Inf"] = v
			}
		case strings.HasSuffix(name, "_count") && types[base] == "histogram":
			v, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				t.Errorf("line %d: count value %q not an integer", ln+1, value)
				continue
			}
			counts[base+"_count"] = v
		default:
			if _, err := strconv.ParseFloat(value, 64); err != nil {
				t.Errorf("line %d: value %q not a number", ln+1, value)
			}
		}
	}
	for base, typ := range types {
		if typ != "histogram" {
			continue
		}
		if counts[base+"+Inf"] != counts[base+"_count"] {
			t.Errorf("histogram %s: +Inf bucket %d != count %d", base, counts[base+"+Inf"], counts[base+"_count"])
		}
	}
}

func TestWritePrometheusValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := seededDump().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	validatePrometheus(t, buf.String())
}

func TestWritePrometheusNil(t *testing.T) {
	var d *Dump
	var buf bytes.Buffer
	if err := d.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil dump wrote %q, err %v", buf.String(), err)
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"simsvc.jobs.completed": "simsvc_jobs_completed",
		"9lives":                "_9lives",
		"a b/c-d":               "a_b_c_d",
		"":                      "_",
		"ok_name:x":             "ok_name:x",
	}
	for in, want := range cases {
		if got := SanitizeMetricName(in); got != want {
			t.Errorf("SanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
		if got := SanitizeMetricName(in); !metricNameRe.MatchString(got) {
			t.Errorf("SanitizeMetricName(%q) = %q does not match the charset", in, got)
		}
	}
}

func TestEscapeLabelValue(t *testing.T) {
	in := "a\"b\\c\nd"
	want := `a\"b\\c\nd`
	if got := escapeLabelValue(in); got != want {
		t.Errorf("escapeLabelValue(%q) = %q, want %q", in, got, want)
	}
}

// TestHistogramDumpRoundTrip pins the bucket math: cumulative buckets in
// the exposition must reproduce the per-bucket counts of the dump.
func TestHistogramDumpRoundTrip(t *testing.T) {
	r := New()
	h := r.Histogram("x", []uint64{10, 20})
	for _, v := range []uint64{5, 15, 25, 30} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.Dump().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := []string{
		`x_bucket{le="10"} 1`,
		`x_bucket{le="20"} 2`,
		`x_bucket{le="+Inf"} 4`,
		`x_count 4`,
	}
	for _, line := range want {
		if !strings.Contains(buf.String(), line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, buf.String())
		}
	}
	if !strings.Contains(buf.String(), fmt.Sprintf("x_sum %g\n", float64(5+15+25+30))) {
		t.Errorf("exposition missing exact sum:\n%s", buf.String())
	}
}
