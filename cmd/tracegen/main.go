// Command tracegen synthesizes and inspects the MSC-like workload traces
// that drive the simulator's cores (Table III calibration).
//
// Usage:
//
//	tracegen -stats                  # calibration summary of all 15
//	tracegen -bench face -n 20       # dump the first 20 records
package main

import (
	"flag"
	"fmt"
	"os"

	"doram/internal/trace"
)

func main() {
	var (
		bench = flag.String("bench", "", "benchmark to dump (empty with -stats summarizes all)")
		n     = flag.Uint64("n", 10, "records to dump")
		seed  = flag.Uint64("seed", 42, "generation seed")
		stats = flag.Bool("stats", false, "print calibration statistics")
	)
	flag.Parse()

	if *stats {
		printStats(*seed)
		return
	}
	if *bench == "" {
		fmt.Fprintln(os.Stderr, "tracegen: -bench required without -stats")
		os.Exit(2)
	}
	spec, ok := trace.ByName(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "tracegen: unknown benchmark %q\n", *bench)
		os.Exit(2)
	}
	g := trace.NewGenerator(spec, *seed)
	fmt.Printf("# %s (%s): MPKI %.1f, read fraction %.2f\n",
		spec.Name, spec.Suite, spec.MPKI, spec.ReadFrac)
	fmt.Println("# gap  op  address")
	for i := uint64(0); i < *n; i++ {
		rec, _ := g.Next()
		op := "R "
		if rec.Write {
			op = "W "
		}
		fmt.Printf("%6d  %s  %#x\n", rec.Gap, op, rec.Addr)
	}
}

func printStats(seed uint64) {
	fmt.Printf("%-8s %-9s %8s %8s %9s %9s %12s\n",
		"bench", "suite", "MPKI", "meas", "readFrac", "meas", "uniqueLines")
	const sample = 100000
	for _, spec := range trace.MSC() {
		st := trace.Measure(trace.NewGenerator(spec, seed), sample)
		fmt.Printf("%-8s %-9s %8.1f %8.2f %9.2f %9.2f %12d\n",
			spec.Name, spec.Suite, spec.MPKI, st.MPKI(), spec.ReadFrac, st.ReadFrac(), st.UniqueLine)
	}
}
