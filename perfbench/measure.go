package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the p-quantile (p in [0,1]) of xs, interpolating
// linearly between the closest ranks. xs need not be sorted.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// usage is a snapshot of the process's consumption: wall clock, CPU time,
// bytes allocated and the runtime's GC CPU estimate.
type usage struct {
	wall     time.Time
	cpu      time.Duration
	alloc    uint64
	gcCPU    float64
	totalCPU float64
}

// runtimeCounter reads one cumulative runtime metric, such as
// "/gc/heap/allocs:bytes".
func runtimeCounter(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocBytes is the cumulative number of bytes the process has allocated.
func allocBytes() uint64 { return runtimeCounter("/gc/heap/allocs:bytes") }

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	metrics.Read(usageSamples)
	return usage{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    usageSamples[0].Value.Uint64(),
		gcCPU:    usageSamples[1].Value.Float64(),
		totalCPU: usageSamples[2].Value.Float64(),
	}
}

// span is the consumption between two usage snapshots.
type span struct {
	wall     time.Duration
	cpu      time.Duration
	alloc    uint64
	gcCPU    float64 // runtime's estimate of GC CPU seconds
	totalCPU float64 // runtime's estimate of all CPU seconds
}

func since(u usage) span {
	now := takeUsage()
	return span{wall: now.wall.Sub(u.wall), cpu: now.cpu - u.cpu, alloc: now.alloc - u.alloc,
		gcCPU: now.gcCPU - u.gcCPU, totalCPU: now.totalCPU - u.totalCPU}
}

// add sums two spans.
func (s span) add(o span) span {
	return span{wall: s.wall + o.wall, cpu: s.cpu + o.cpu, alloc: s.alloc + o.alloc,
		gcCPU: s.gcCPU + o.gcCPU, totalCPU: s.totalCPU + o.totalCPU}
}

// gcPct is the garbage collector's share of the CPU time the process
// used, in percent.
func (s span) gcPct() float64 {
	if s.totalCPU <= 0 {
		return 0
	}
	return 100 * s.gcCPU / s.totalCPU
}

// cpuUtil is process CPU time over the CPU time GOMAXPROCS makes
// available during the span.
func (s span) cpuUtil() float64 {
	return s.cpu.Seconds() / (s.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
}

// fillEndToEnd sets the metrics every workload reports the same way:
// set-up as the median of several set-ups, latency as the median of the
// latencies given, and bytes allocated per operation in the measured span.
func fillEndToEnd(r *report, setups []time.Duration, latMS []float64, allocBytes uint64, ops int64) {
	var setupS []float64
	for _, d := range setups {
		setupS = append(setupS, d.Seconds())
	}
	r.metrics["setup_s"] = median(setupS)
	r.metrics["latency_ms"] = median(latMS)
	r.metrics["alloc_kb_per_op"] = float64(allocBytes) / 1024 / float64(max(ops, 1))
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
