package doram_test

import (
	"fmt"

	"doram"
)

// ExampleORAM demonstrates the functional Path ORAM as an oblivious block
// store: writes and reads work like a flat block device while every
// operation touches one full tree path.
func ExampleORAM() {
	cfg := doram.DefaultORAMConfig()
	cfg.Levels = 10
	store, err := doram.NewORAM(cfg)
	if err != nil {
		panic(err)
	}
	if err := store.Write(42, []byte("hello")); err != nil {
		panic(err)
	}
	data, err := store.Read(42)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s, %d blocks moved per access\n", data[:5], store.BlocksPerAccess()*2)
	// Output: hello, 64 blocks moved per access
}

// ExampleSimulate runs one D-ORAM co-run simulation and prints whether
// the delegation beat the Path ORAM baseline. The spec leaves NumNS,
// HasSApp and C unset, which means the paper's 1S7NS co-run: seven
// NS-Apps, one S-App, and every NS-App allowed on the secure channel.
func ExampleSimulate() {
	base, err := doram.Simulate(doram.SimConfig{Params: doram.Params{
		Scheme: doram.SchemePathORAM, Benchmark: "libq",
		TraceLen: 2000, Seed: 1,
	}})
	if err != nil {
		panic(err)
	}
	dor, err := doram.Simulate(doram.SimConfig{Params: doram.Params{
		Scheme: doram.SchemeDORAM, Benchmark: "libq",
		TraceLen: 2000, Seed: 1,
	}})
	if err != nil {
		panic(err)
	}
	fmt.Println("D-ORAM faster:", dor.AvgNSExecCycles < base.AvgNSExecCycles)
	// Output: D-ORAM faster: true
}

// ExampleRunExperiment regenerates Table I of the paper.
func ExampleRunExperiment() {
	out, err := doram.RunExperiment("table1", doram.ExperimentOptions{Quick: true})
	if err != nil {
		panic(err)
	}
	fmt.Println(len(out) > 0)
	// Output: true
}
