// Package delegator implements D-ORAM's trusted components: the on-chip
// secure engine that paces and encrypts ORAM requests (§III-B), and the
// secure delegator (SD) embedded in the BOB unit that executes Path ORAM
// against the untrusted sub-channels. The Path ORAM baseline runs the same
// SD state machine on-chip, over the direct-attached channels, with no
// link to cross.
package delegator

import "doram/internal/stats"

// Access is one ORAM operation requested by the secure engine.
type Access struct {
	// Real marks an actual S-App request; dummies keep the request rate
	// fixed for timing protection.
	Real  bool
	Write bool
	// Addr is the S-App's logical block address (line-aligned bytes).
	Addr uint64

	// TraceID ties the access's tracer spans (engine, executor, link, mc)
	// together; 0 = unsampled. Assigned by the engine.
	TraceID uint64

	// OnResponse fires when the response packet reaches the processor
	// (CPU cycle): the read-phase data is available and the engine starts
	// its t-cycle countdown to the next request.
	OnResponse func(cpuCycle uint64)
}

// ExecStats aggregates ORAM execution behaviour.
type ExecStats struct {
	Accesses      stats.Counter
	RealAccesses  stats.Counter
	DummyAccesses stats.Counter
	ReadPhase     stats.Latency // start to response, CPU cycles
	WritePhase    stats.Latency // response to write-back drain, CPU cycles
	RemoteBlocks  stats.Counter // blocks moved to/from normal channels (+k)
}
