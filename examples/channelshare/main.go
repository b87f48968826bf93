// Secure-channel sharing (/c): find the best number of NS-Apps allowed to
// allocate on D-ORAM's secure channel.
//
// The secure channel services the ORAM storm, so NS-Apps placed there see
// higher latency — but banning them all from it wastes a quarter of the
// system's channels. The paper tunes c per application using the profiled
// ratio r = T25mix/T33 (§III-D, Figure 12). This example sweeps c for one
// benchmark and compares the sweep's optimum with the ratio's prediction.
//
//	go run ./examples/channelshare [benchmark]
package main

import (
	"fmt"
	"log"
	"os"

	"doram"
)

func main() {
	bench := "black"
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}
	const traceLen = 5000

	run := func(cfg doram.SimConfig) *doram.SimResult {
		cfg.TraceLen = traceLen
		res, err := doram.Simulate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	// Profile on a different trace segment (another seed), as the paper
	// does: T25mix = latency slowdown sharing all 4 channels with the
	// S-App; T33 = latency slowdown on the 3 normal channels only.
	solo := doram.DefaultSimConfig(doram.SchemeNonSecure, bench)
	solo.NumNS = ptr(1)
	solo.Seed = 99
	soloRes := run(solo)

	mix := doram.DefaultSimConfig(doram.SchemeDORAM, bench)
	mix.Seed = 99
	mixRes := run(mix)

	only3 := doram.DefaultSimConfig(doram.SchemeDORAM, bench)
	only3.C = ptr(0)
	only3.Seed = 99
	only3Res := run(only3)

	t25mix := mixRes.NSReadLatencyNs / soloRes.NSReadLatencyNs
	t33 := only3Res.NSReadLatencyNs / soloRes.NSReadLatencyNs
	ratio := t25mix / t33
	predict := "c >= 4 (use all channels)"
	if ratio > 1 {
		predict = "c < 4 (avoid the secure channel)"
	}
	fmt.Printf("benchmark %s: profiled T25mix=%.2f T33=%.2f ratio=%.3f -> prefer %s\n\n",
		bench, t25mix, t33, ratio, predict)

	// Evaluate the sweep on the measurement segment.
	fmt.Printf("%-6s %14s\n", "c", "NS exec (cyc)")
	bestC, bestV := 0, 0.0
	for c := 0; c <= 7; c++ {
		cfg := doram.DefaultSimConfig(doram.SchemeDORAM, bench)
		cfg.C = &c
		res := run(cfg)
		fmt.Printf("%-6d %14.0f\n", c, res.AvgNSExecCycles)
		if c == 0 || res.AvgNSExecCycles < bestV {
			bestC, bestV = c, res.AvgNSExecCycles
		}
	}
	fmt.Printf("\nmeasured best: c=%d — profiling %s\n", bestC,
		map[bool]string{true: "agrees", false: "disagrees"}[(ratio > 1) == (bestC < 4)])
}

func ptr[T any](v T) *T { return &v }
