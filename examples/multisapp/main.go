// Multiple secure applications: the §III-C capacity-pressure scenario.
//
// Two S-Apps both live on D-ORAM's secure channel: each needs a 4 GB Path
// ORAM tree (for 2 GB of data), so together they exhaust the channel's
// DIMM capacity — the situation the tree split (+k) exists to relieve.
// This example runs 1 and 2 S-App configurations and shows how the two
// delegated ORAM streams share the secure channel, then applies the split.
//
//	go run ./examples/multisapp
package main

import (
	"fmt"
	"log"

	"doram"
)

func main() {
	const bench = "comm2"
	const traceLen = 5000

	run := func(label string, numS, numNS, k int) *doram.SimResult {
		cfg := doram.DefaultSimConfig(doram.SchemeDORAM, bench)
		cfg.NumS = numS
		cfg.NumNS = &numNS
		cfg.SplitK = k
		cfg.TraceLen = traceLen
		res, err := doram.Simulate(cfg)
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		fmt.Printf("%-28s NSexec=%9.0f cyc  ORAM/S-App=%4d accesses  readLat=%.0fns\n",
			label, res.AvgNSExecCycles, res.ORAMAccesses, res.NSReadLatencyNs)
		return res
	}

	fmt.Printf("benchmark %s, secure channel = 4 sub-channels\n\n", bench)
	one := run("1 S-App + 7 NS", 1, 7, 0)
	two := run("2 S-Apps + 6 NS", 2, 6, 0)
	runKone := run("2 S-Apps + 6 NS, split k=1", 2, 6, 1)
	_ = runKone

	fmt.Printf("\nORAM throughput per S-App: alone %d, shared %d accesses over similar time\n",
		one.ORAMAccesses, two.ORAMAccesses)
	fmt.Println("capacity: each S-App needs a 4 GB tree; two trees exceed one channel's")
	fmt.Println("DIMMs — split k=1 moves 50% of each tree to the normal channels (Table I)")
	fmt.Println("while keeping the delegators on the secure channel.")
}
