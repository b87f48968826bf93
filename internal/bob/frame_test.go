package bob

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	f := Frame{Seq: 7, Packet: Packet{Write: true, Addr: 0xdead_beef}}
	copy(f.Packet.Data[:], "framed-payload")
	got, err := UnmarshalFrame(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got != f {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, f)
	}
}

func TestFrameSizes(t *testing.T) {
	if len(Frame{}.Marshal()) != FrameBytes || FrameBytes != 80 {
		t.Fatalf("frame must be %d bytes (72 B packet + 4 B seq + 4 B crc)", FrameBytes)
	}
}

func TestFrameDetectsCorruption(t *testing.T) {
	f := Frame{Seq: 42, Packet: Packet{Addr: 99}}
	buf := f.Marshal()
	// Flip one bit anywhere in the protected region.
	for _, pos := range []int{0, 8, 40, FullPacketBytes, FullPacketBytes + 3} {
		bad := append([]byte(nil), buf...)
		bad[pos] ^= 0x04
		if _, err := UnmarshalFrame(bad); !errors.Is(err, ErrChecksum) {
			t.Fatalf("bit flip at %d: err = %v, want ErrChecksum", pos, err)
		}
	}
}

func TestUnmarshalSizeTable(t *testing.T) {
	cases := []struct {
		name string
		n    int
	}{
		{"empty", 0}, {"tiny", 1}, {"short-read-size", 8},
		{"truncated", FullPacketBytes - 1}, {"oversized", FullPacketBytes + 1},
		{"frame-sized", FrameBytes}, {"huge", 4096},
	}
	for _, c := range cases {
		if _, err := Unmarshal(make([]byte, c.n)); !errors.Is(err, ErrPacketSize) {
			t.Errorf("Unmarshal(%s %d B): err = %v, want ErrPacketSize", c.name, c.n, err)
		}
	}
	for _, n := range []int{0, 1, FullPacketBytes, FrameBytes - 1, FrameBytes + 1, 4096} {
		if _, err := UnmarshalFrame(make([]byte, n)); !errors.Is(err, ErrFrameSize) {
			t.Errorf("UnmarshalFrame(%d B): err = %v, want ErrFrameSize", n, err)
		}
	}
}

func TestPropertyFrameRoundTrip(t *testing.T) {
	f := func(seq uint32, write bool, addr uint64, data [64]byte) bool {
		addr &= 1<<63 - 1
		fr := Frame{Seq: seq, Packet: Packet{Write: write, Addr: addr, Data: data}}
		got, err := UnmarshalFrame(fr.Marshal())
		return err == nil && got == fr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzUnmarshalFrame ensures arbitrary bytes never panic the frame parser
// and that accepted frames re-marshal identically.
func FuzzUnmarshalFrame(f *testing.F) {
	f.Add(make([]byte, FrameBytes))
	f.Add([]byte("short"))
	f.Add(Frame{Seq: 3, Packet: Packet{Write: true, Addr: 77}}.Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := UnmarshalFrame(data)
		if err != nil {
			return
		}
		back, err := UnmarshalFrame(fr.Marshal())
		if err != nil || back != fr {
			t.Fatalf("round trip broke: %v", err)
		}
	})
}

func TestLinkConfigValidate(t *testing.T) {
	if err := DefaultLinkConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []LinkConfig{
		{LatencyCycles: maxLinkLatencyCycles + 1},
	}
	for i, cfg := range bad {
		if _, err := NewLink(cfg); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, cfg)
		}
	}
}

func TestSimpleControllerCtorErrors(t *testing.T) {
	if _, err := NewSimpleController(nil, nil, 0); err == nil {
		t.Fatal("nil link accepted")
	}
	l := MustLink(DefaultLinkConfig())
	if _, err := NewSimpleController(l, nil, 32); err == nil {
		t.Fatal("empty sub-channel set accepted")
	}
}

// scriptedFaults replays a fixed outcome sequence, then delivers forever.
type scriptedFaults struct {
	outcomes []Outcome
	i        int
}

func (s *scriptedFaults) NextOutcome() Outcome {
	if s.i >= len(s.outcomes) {
		return Delivered
	}
	o := s.outcomes[s.i]
	s.i++
	return o
}

func TestLinkRetransmitBackoffTiming(t *testing.T) {
	l := MustLink(DefaultLinkConfig())
	l.SetFaultModel(&scriptedFaults{outcomes: []Outcome{Corrupted, Lost, Delivered}})
	// Framed 72 B packet = 80 B at 4 B/cycle = 20 cycles occupancy.
	// Attempt 0 launches at 0, would arrive at 20+48 = 68 but is corrupted.
	// Timeout = occ + 2*latency = 20+96 = 116.
	// Attempt 1 starts at 68+116 = 184, arrives 184+20+48 = 252, lost.
	// Attempt 2 starts at 252+232 = 484, arrives 484+20+48 = 552.
	arrive := l.SendDown(FullPacketBytes, 0)
	if want := uint64(552); arrive != want {
		t.Fatalf("arrival = %d, want %d", arrive, want)
	}
	ds := l.DownStats()
	if ds.Retransmits.Value() != 2 || ds.Corrupted.Value() != 1 || ds.Lost.Value() != 1 {
		t.Fatalf("stats: retransmits=%d corrupted=%d lost=%d, want 2/1/1",
			ds.Retransmits.Value(), ds.Corrupted.Value(), ds.Lost.Value())
	}
	if want := uint64(552 - 68); ds.RetryCycles.Value() != want {
		t.Fatalf("retry cycles = %d, want %d", ds.RetryCycles.Value(), want)
	}
	// Wire accounting covers all three attempts.
	if ds.Bytes.Value() != 3*FrameBytes {
		t.Fatalf("bytes = %d, want %d", ds.Bytes.Value(), 3*FrameBytes)
	}
	if ds.Packets.Value() != 1 {
		t.Fatalf("packets = %d, want 1 (retransmits are not new packets)", ds.Packets.Value())
	}
}

func TestLinkGivesUpAtAttemptCap(t *testing.T) {
	l := MustLink(DefaultLinkConfig())
	always := make([]Outcome, 100)
	for i := range always {
		always[i] = Lost
	}
	l.SetFaultModel(&scriptedFaults{outcomes: always})
	l.SendDown(FullPacketBytes, 0) // must terminate
	if l.DownStats().GiveUps.Value() != 1 {
		t.Fatalf("give-ups = %d, want 1", l.DownStats().GiveUps.Value())
	}
	if got := l.DownStats().Retransmits.Value(); got != maxSendAttempts-1 {
		t.Fatalf("retransmits = %d, want %d", got, maxSendAttempts-1)
	}
}

func TestLinkFaultFreeTimingUnchangedByModelAbsence(t *testing.T) {
	// With no fault model the wire format stays unframed: identical timing
	// to the paper's configuration.
	l := MustLink(DefaultLinkConfig())
	if arrive := l.SendDown(FullPacketBytes, 0); arrive != 18+48 {
		t.Fatalf("unframed arrival = %d, want 66", arrive)
	}
}
