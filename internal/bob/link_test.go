package bob

import "testing"

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
	arrive := l.SendDownFor(0, FullPacketBytes, 0)
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
	if ds.Bytes.Value() != 3*(FullPacketBytes+FrameOverhead) {
		t.Fatalf("bytes = %d, want %d", ds.Bytes.Value(), 3*(FullPacketBytes+FrameOverhead))
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
	l.SendDownFor(0, FullPacketBytes, 0) // must terminate
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
	if arrive := l.SendDownFor(0, FullPacketBytes, 0); arrive != 18+48 {
		t.Fatalf("unframed arrival = %d, want 66", arrive)
	}
}
