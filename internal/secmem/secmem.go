// Package secmem models the secure-memory execution comparator of Figure 4:
// ObfusMem / InvisiMem-style protection where both the processor and the
// memory module are trusted and only the channel is protected. Reads and
// writes are shaped identically, and with multiple channels every access
// sends dummy requests to the channels that do not hold the data, hiding
// the accessed channel (§II-B2, §II-C).
//
// The model captures the property Figure 4 depends on: each S-App access
// multiplies into one read-shaped and one write-shaped transaction on
// every channel, which is cheap for the S-App (parallel) but contends with
// co-running NS-Apps on all channels. The model has no settings: every
// access is write-shaped, and every real read pays a fixed 32-cycle
// packet-crypto latency.
package secmem

import (
	"doram/internal/addrmap"
	"doram/internal/clock"
	"doram/internal/mc"
)

// cryptoCycles is the per-access packet encryption/authentication latency
// added to the S-App's critical path (the ~10% overhead the paper cites
// from ObfusMem).
const cryptoCycles = 32

// SecMem is the S-App's memory port under the secure-memory model. It
// implements cpu.Port.
type SecMem struct {
	mcs    []*mc.Controller
	mapper *addrmap.Mapper
	appID  int
}

// New builds the port over the controllers of the direct-attached
// channels (bob.NewDirect), one per channel in channel order; the S-App
// enqueues into them beside the NS-Apps' traffic. The mapper spreads the
// S-App's lines across all channels (bus indices must match the mcs
// slice).
func New(mcs []*mc.Controller, mapper *addrmap.Mapper, appID int) *SecMem {
	if len(mcs) == 0 {
		panic("secmem: need at least one channel")
	}
	return &SecMem{mcs: mcs, mapper: mapper, appID: appID}
}

// Access implements cpu.Port: the real transaction goes to the channel
// holding the line; every other channel receives a dummy of identical
// shape, and a write-shaped transaction follows on all channels so request
// types stay hidden.
func (s *SecMem) Access(write bool, addr uint64, now uint64, onDone func(uint64)) bool {
	real := s.mapper.Map(addr)
	memNow := clock.ToMem(now)

	// Admission check on the real channel only; dummies are best-effort
	// (dropping one under backlog does not change interference trends).
	realReq := &mc.Request{Op: mc.OpRead, Coord: real, AppID: s.appID, Secure: true}
	if !write && onDone != nil {
		realReq.OnComplete = func(_ *mc.Request, memDone uint64) {
			onDone(clock.ToCPU(memDone) + cryptoCycles)
		}
	}
	if !s.mcs[real.Bus].Enqueue(realReq, memNow) {
		return false
	}

	for bus := range s.mcs {
		if bus != real.Bus {
			dummy := real
			dummy.Bus = bus
			s.mcs[bus].Enqueue(&mc.Request{Op: mc.OpRead, Coord: dummy, AppID: s.appID, Secure: true}, memNow)
		}
		// ObfusMem writes back the (re-encrypted) line it accessed, so the
		// shaped write targets the same coordinate; a prompt re-read may
		// forward from the write queue, exactly as the hardware would.
		wc := real
		wc.Bus = bus
		s.mcs[bus].Enqueue(&mc.Request{Op: mc.OpWrite, Coord: wc, AppID: s.appID, Secure: true}, memNow)
	}
	return true
}
