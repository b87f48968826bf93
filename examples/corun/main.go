// Co-run interference: reproduce the paper's motivation (Figure 4) and
// headline result (Figure 9) for one benchmark.
//
// Runs four systems — solo, the Path ORAM baseline, plain D-ORAM, and
// D-ORAM with channel sharing control — and reports how much the secure
// application slows its seven non-secure co-runners under each.
//
//	go run ./examples/corun [benchmark]
package main

import (
	"fmt"
	"log"
	"os"

	"doram"
)

func main() {
	bench := "face"
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}
	const traceLen = 6000

	run := func(label string, cfg doram.SimConfig) *doram.SimResult {
		cfg.TraceLen = traceLen
		res, err := doram.Simulate(cfg)
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		return res
	}

	solo := doram.DefaultSimConfig(doram.SchemeNonSecure, bench)
	solo.NumNS = ptr(1)
	soloRes := run("solo", solo)

	baseRes := run("baseline", doram.DefaultSimConfig(doram.SchemePathORAM, bench))
	dorRes := run("d-oram", doram.DefaultSimConfig(doram.SchemeDORAM, bench))

	shared := doram.DefaultSimConfig(doram.SchemeDORAM, bench)
	shared.C = ptr(4)
	sharedRes := run("d-oram/4", shared)

	fmt.Printf("benchmark %s, 1 S-App + 7 NS-Apps, %d accesses per core\n\n", bench, traceLen)
	fmt.Printf("%-22s %14s %12s %12s\n", "system", "NS exec (cyc)", "vs solo", "vs baseline")
	show := func(name string, r *doram.SimResult) {
		fmt.Printf("%-22s %14.0f %11.2fx %11.3fx\n", name, r.AvgNSExecCycles,
			r.AvgNSExecCycles/soloRes.AvgNSExecCycles,
			r.AvgNSExecCycles/baseRes.AvgNSExecCycles)
	}
	show("solo (1NS)", soloRes)
	show("Path ORAM baseline", baseRes)
	show("D-ORAM", dorRes)
	show("D-ORAM/4 (sharing)", sharedRes)

	fmt.Printf("\nS-App ORAM access time: baseline %.0f ns, D-ORAM %.0f ns\n",
		baseRes.ORAMAccessNs, dorRes.ORAMAccessNs)
	fmt.Println("(paper: D-ORAM cuts NS execution to 87.5% of the baseline on average,")
	fmt.Println(" 77.5% with the best sharing setting; S-App cost stays in the same range)")
}

func ptr[T any](v T) *T { return &v }
