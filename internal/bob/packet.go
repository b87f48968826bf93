// Package bob models the buffer-on-board memory architecture: the narrow,
// fast serial link between the processor's main memory controller and the
// on-board simple controller, the 72-byte packets that traverse it, and
// the simple controller that drives commodity DIMM sub-channels on the far
// side (§II-A, §III-A of the paper). Packets are modeled by their wire
// size alone: only the link's occupancy and latency affect the results.
package bob

// Packet sizes on the serial link (§III-B, §III-C).
const (
	// FullPacketBytes is the request/response packet: 1-bit type, 63-bit
	// address, 64 B data — always carrying a data field so reads and
	// writes are indistinguishable on the wire.
	FullPacketBytes = 72
	// ShortReadBytes is the header-only read packet used for cross-channel
	// tree-split fetches, where omitting the data field is safe because
	// the optimization's message types are public.
	ShortReadBytes = 8
)

// FrameOverhead is the sequence number (4 B) plus checksum (4 B) appended
// to every packet when a link runs with a fault model.
const FrameOverhead = 8
