package bob

import (
	"fmt"
	"math"

	"doram/internal/clock"
	"doram/internal/evtrace"
	"doram/internal/metrics"
	"doram/internal/stats"
)

// LinkConfig sets the serial link's bandwidth and latency.
type LinkConfig struct {
	// BytesPerCPUCycle is the per-direction link bandwidth. The paper sets
	// the serial link comparable to one DDR3-1600 parallel channel:
	// 12.8 GB/s = 4 bytes per 3.2 GHz CPU cycle.
	BytesPerCPUCycle float64
	// LatencyCycles is the one-way buffer-logic-plus-link latency added to
	// every transfer: 15 ns (Table II, from Twin-Load [10]) = 48 cycles.
	LatencyCycles uint64
}

// DefaultLinkLatencyNs is the paper's one-way buffer-logic-plus-link
// latency (Table II).
const DefaultLinkLatencyNs = 15

// maxLinkLatencyCycles bounds LatencyCycles to a physically plausible
// range (1 ms at 3.2 GHz); beyond it a latency is almost certainly a
// unit-conversion bug in the caller.
const maxLinkLatencyCycles = 3_200_000

// Validate reports whether the link configuration is usable.
func (c LinkConfig) Validate() error {
	switch {
	case math.IsNaN(c.BytesPerCPUCycle) || math.IsInf(c.BytesPerCPUCycle, 0):
		return fmt.Errorf("bob: link bandwidth %v is not finite", c.BytesPerCPUCycle)
	case c.BytesPerCPUCycle <= 0:
		return fmt.Errorf("bob: link bandwidth %v must be positive", c.BytesPerCPUCycle)
	case c.LatencyCycles > maxLinkLatencyCycles:
		return fmt.Errorf("bob: link latency %d cycles exceeds %d (unit error?)",
			c.LatencyCycles, uint64(maxLinkLatencyCycles))
	}
	return nil
}

// DefaultLinkConfig returns the paper's link parameters.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{
		BytesPerCPUCycle: 4,
		LatencyCycles:    clock.NanosToCPU(DefaultLinkLatencyNs),
	}
}

// Outcome is the fate of one transfer attempt on an unreliable link.
type Outcome int

// Transfer attempt outcomes.
const (
	// Delivered means the packet arrived intact.
	Delivered Outcome = iota
	// Corrupted means the packet arrived but its checksum failed at the
	// receiver, which discards it; the sender retransmits on timeout.
	Corrupted
	// Lost means the packet never arrived; the sender retransmits on
	// timeout.
	Lost
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case Corrupted:
		return "corrupted"
	case Lost:
		return "lost"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// FaultModel decides the fate of each transfer attempt on a link
// direction. Implementations must be deterministic from their seed so
// chaos campaigns reproduce exactly (internal/faults.LinkModel).
type FaultModel interface {
	NextOutcome() Outcome
}

// maxSendAttempts bounds retransmission so an adversarial fault model
// cannot livelock the simulation; the final attempt is forced through
// (modeling a higher-layer link reset) and counted in GiveUps.
const maxSendAttempts = 20

// LinkStats aggregates per-direction link activity.
type LinkStats struct {
	Packets stats.Counter
	Bytes   stats.Counter
	Busy    stats.Counter // cycles of serialization occupancy

	// Unreliable-link recovery activity (zero unless a FaultModel is
	// attached).
	Corrupted   stats.Counter // attempts discarded by the receiver's checksum
	Lost        stats.Counter // attempts that never arrived
	Retransmits stats.Counter // extra transfer attempts
	RetryCycles stats.Counter // delivery delay added by retransmission
	GiveUps     stats.Counter // packets forced through at the attempt cap
}

// Link is one full-duplex serial link: independent down (CPU to BOB) and
// up (BOB to CPU) directions, each a FIFO wire that serializes packets at
// the configured bandwidth and delivers them after the fixed latency.
// With a FaultModel attached, every packet carries a sequence-and-checksum
// frame (FrameOverhead extra wire bytes) and corrupted or lost transfers
// are retransmitted on timeout with exponential backoff, all modeled
// cycle-accurately on the wire.
type Link struct {
	cfg  LinkConfig
	down direction
	up   direction

	faults FaultModel

	// trace, when attached, records one "packet" span per sampled send on
	// tracks trackPrefix+"down" / trackPrefix+"up", covering serialization
	// start through receiver acceptance (retransmits included). nil costs
	// one nil check per ID-carrying send.
	trace       *evtrace.Tracer
	trackPrefix string
}

type direction struct {
	freeAt uint64
	seq    uint64 // next frame sequence number
	stats  LinkStats
}

// NewLink builds a link, or reports why the configuration is invalid.
func NewLink(cfg LinkConfig) (*Link, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Link{cfg: cfg}, nil
}

// MustLink builds a link from a configuration known to be valid; it
// panics otherwise (for tests and static defaults).
func MustLink(cfg LinkConfig) *Link {
	l, err := NewLink(cfg)
	if err != nil {
		panic(err)
	}
	return l
}

// SetFaultModel attaches (or, with nil, detaches) an unreliable-link
// model shared by both directions.
func (l *Link) SetFaultModel(m FaultModel) { l.faults = m }

// occupancy returns the serialization time of a packet of n bytes.
func (l *Link) occupancy(n int) uint64 {
	c := uint64(float64(n)/l.cfg.BytesPerCPUCycle + 0.999999)
	if c == 0 {
		c = 1
	}
	return c
}

// transfer models one wire occupancy on a direction and returns the
// arrival cycle of that single attempt.
func (l *Link) transfer(d *direction, n int, now uint64) uint64 {
	start := now
	if d.freeAt > start {
		start = d.freeAt
	}
	occ := l.occupancy(n)
	d.freeAt = start + occ
	d.stats.Bytes.Add(uint64(n))
	d.stats.Busy.Add(occ)
	return d.freeAt + l.cfg.LatencyCycles
}

// send models one packet delivery on a direction and returns the cycle the
// packet is accepted by the receiver. On a faulty link each failed attempt
// occupies the wire, then the sender waits out a timeout (one round trip)
// that doubles with every attempt before retransmitting.
func (l *Link) send(d *direction, n int, now uint64) uint64 {
	d.stats.Packets.Inc()
	d.seq++
	if l.faults == nil {
		return l.transfer(d, n, now)
	}
	wire := n + FrameOverhead
	firstArrival := l.transfer(d, wire, now)
	arrival := firstArrival
	timeout := l.occupancy(wire) + 2*l.cfg.LatencyCycles
	for attempt := 0; ; attempt++ {
		outcome := l.faults.NextOutcome()
		if outcome == Delivered {
			break
		}
		if attempt+1 >= maxSendAttempts {
			d.stats.GiveUps.Inc()
			break
		}
		switch outcome {
		case Corrupted:
			d.stats.Corrupted.Inc()
		default:
			d.stats.Lost.Inc()
		}
		// The sender detects the failure one timeout after launching the
		// attempt, backing off exponentially, then reserializes the frame.
		resend := arrival + timeout<<uint(attempt)
		arrival = l.transfer(d, wire, resend)
		d.stats.Retransmits.Inc()
	}
	if arrival > firstArrival {
		d.stats.RetryCycles.Add(arrival - firstArrival)
	}
	return arrival
}

// SendDown transmits n bytes toward the BOB unit at CPU cycle now and
// returns the arrival cycle.
func (l *Link) SendDown(n int, now uint64) uint64 { return l.send(&l.down, n, now) }

// SendUp transmits n bytes toward the CPU at CPU cycle now and returns the
// arrival cycle.
func (l *Link) SendUp(n int, now uint64) uint64 { return l.send(&l.up, n, now) }

// SendDownFor is SendDown carrying a tracer request ID: when a tracer is
// attached and id is non-zero, the packet's wire time (queueing for the
// direction excluded, retransmits included) is recorded as a span.
func (l *Link) SendDownFor(id uint64, n int, now uint64) uint64 {
	return l.sendFor(&l.down, "down", id, n, now)
}

// SendUpFor is SendUp carrying a tracer request ID.
func (l *Link) SendUpFor(id uint64, n int, now uint64) uint64 {
	return l.sendFor(&l.up, "up", id, n, now)
}

func (l *Link) sendFor(d *direction, name string, id uint64, n int, now uint64) uint64 {
	if l.trace == nil || id == 0 {
		return l.send(d, n, now)
	}
	// Serialization starts when the wire frees up; capture it before send
	// advances freeAt.
	start := now
	if d.freeAt > start {
		start = d.freeAt
	}
	arrival := l.send(d, n, now)
	l.trace.EmitOverlap(l.trackPrefix+name, "link", "packet", id, start, arrival, uint64(n))
	return arrival
}

// AttachTracer routes per-packet spans to t under trackPrefix (e.g.
// "chan0.link."). No-op fields on nil.
func (l *Link) AttachTracer(t *evtrace.Tracer, trackPrefix string) {
	l.trace = t
	l.trackPrefix = trackPrefix
}

// DownStats returns statistics for the CPU-to-BOB direction.
func (l *Link) DownStats() *LinkStats { return &l.down.stats }

// UpStats returns statistics for the BOB-to-CPU direction.
func (l *Link) UpStats() *LinkStats { return &l.up.stats }

// InFlight reports how many of the link's directions are serializing a
// transfer at CPU cycle now (0..2).
func (l *Link) InFlight(now uint64) int {
	n := 0
	if l.down.freeAt > now {
		n++
	}
	if l.up.freeAt > now {
		n++
	}
	return n
}

// AttachMetrics registers both directions' wire activity and
// fault-recovery counters under prefix (e.g. "chan0.link."): export-time
// reads of the existing LinkStats, per-epoch utilization gauges, and
// timeline series for in-flight transfers and cumulative retransmits.
// No-op on a nil registry.
func (l *Link) AttachMetrics(r *metrics.Registry, prefix string) {
	if r == nil {
		return
	}
	dirs := []struct {
		name string
		d    *direction
	}{{"down", &l.down}, {"up", &l.up}}
	for _, dir := range dirs {
		st := &dir.d.stats
		p := prefix + dir.name + "."
		r.CounterFunc(p+"packets", st.Packets.Value)
		r.CounterFunc(p+"bytes", st.Bytes.Value)
		r.CounterFunc(p+"corrupted", st.Corrupted.Value)
		r.CounterFunc(p+"lost", st.Lost.Value)
		r.CounterFunc(p+"retransmits", st.Retransmits.Value)
		r.CounterFunc(p+"retry_cycles", st.RetryCycles.Value)
		r.CounterFunc(p+"give_ups", st.GiveUps.Value)
		r.Gauge(p+"util", metrics.BusyRate(st.Busy.Value))
	}
	r.Gauge(prefix+"inflight", func(now uint64) float64 {
		return float64(l.InFlight(now))
	})
	r.Gauge(prefix+"retransmits", func(uint64) float64 {
		return float64(l.down.stats.Retransmits.Value() + l.up.stats.Retransmits.Value())
	})
	r.Gauge(prefix+"faults", func(uint64) float64 {
		return float64(l.down.stats.Corrupted.Value() + l.down.stats.Lost.Value() +
			l.up.stats.Corrupted.Value() + l.up.stats.Lost.Value())
	})
}
