package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profGroups maps the prof.* metrics to Go package paths. A sample counts
// toward the group of its leaf frame (self time).
var profGroups = []struct {
	metric   string
	packages []string
}{
	{"prof.core_pct", []string{"doram/internal/core"}},
	{"prof.cpu_pct", []string{"doram/internal/cpu"}},
	{"prof.mc_pct", []string{"doram/internal/mc"}},
	{"prof.dram_pct", []string{"doram/internal/dram"}},
	{"prof.bob_pct", []string{"doram/internal/bob"}},
	{"prof.delegator_pct", []string{"doram/internal/delegator"}},
	{"prof.oram_pct", []string{"doram/internal/oram"}},
	{"prof.trace_pct", []string{"doram/internal/trace"}},
	{"prof.runtime_pct", []string{"runtime", "internal/runtime", "sync"}},
}

// profile runs fn under the runtime CPU profiler and fills the prof.*
// metrics with each package group's share of the sampled CPU time.
func profile(r *report, fn func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	self, err := leafTimes(buf.Bytes())
	if err != nil {
		return fmt.Errorf("reading CPU profile: %w", err)
	}
	var total int64
	for _, v := range self {
		total += v
	}
	for _, g := range profGroups {
		var sum int64
		for fn, v := range self {
			if inPackages(packageOf(fn), g.packages) {
				sum += v
			}
		}
		r.metrics[g.metric] = 0
		if total > 0 {
			r.metrics[g.metric] = 100 * float64(sum) / float64(total)
		}
	}
	return nil
}

// packageOf returns the import path of a symbol such as
// "doram/internal/mc.(*Controller).Tick".
func packageOf(symbol string) string {
	slash := strings.LastIndex(symbol, "/")
	if dot := strings.Index(symbol[slash+1:], "."); dot >= 0 {
		return symbol[:slash+1+dot]
	}
	return symbol
}

func inPackages(pkg string, roots []string) bool {
	for _, r := range roots {
		if pkg == r || strings.HasPrefix(pkg, r+"/") {
			return true
		}
	}
	return false
}

// leafTimes decodes a gzipped pprof profile (profile.proto) and returns the
// sampled value of each leaf function. Only the fields needed for that are
// read: samples, locations, functions and the string table.
func leafTimes(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples []sample
		locFunc = map[uint64]uint64{} // location id → leaf function id
		funcStr = map[uint64]uint64{} // function id → name string index
		strtab  []string
	)
	err = walk(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := walk(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, d)
				case 2:
					s.vals = appendPacked(s.vals, v, d)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, leaf uint64
			haveLeaf := false
			err := walk(data, func(n int, v uint64, d []byte) error {
				switch {
				case n == 1:
					id = v
				case n == 4 && !haveLeaf: // first Line is the innermost frame
					haveLeaf = true
					return walk(d, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							leaf = lv
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = leaf
			return err
		case 5: // Function
			var id, name uint64
			err := walk(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcStr[id] = name
			return err
		case 6: // string_table
			strtab = append(strtab, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range samples {
		if len(s.locs) == 0 || len(s.vals) == 0 {
			continue
		}
		idx := funcStr[locFunc[s.locs[0]]]
		if idx >= uint64(len(strtab)) {
			return nil, errors.New("string index out of range")
		}
		out[strtab[idx]] += int64(s.vals[len(s.vals)-1])
	}
	return out, nil
}

// walk calls fn for each field of a protobuf message: v holds varint and
// fixed-width values, data the bytes of length-delimited fields.
func walk(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (v)
// or packed (data).
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
