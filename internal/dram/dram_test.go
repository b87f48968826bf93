package dram

import (
	"testing"
	"testing/quick"
)

func TestDDR31600Valid(t *testing.T) {
	tm := DDR31600()
	if err := tm.Validate(); err != nil {
		t.Fatalf("DDR31600 invalid: %v", err)
	}
	if got := tm.ReadLatency(); got != 15 {
		t.Errorf("ReadLatency = %d, want 15 (CL11 + BL8/2)", got)
	}
	if got := tm.WriteLatency(); got != 12 {
		t.Errorf("WriteLatency = %d, want 12 (CWL8 + BL8/2)", got)
	}
	if got := tm.ColumnsPerRow(); got != 128 {
		t.Errorf("ColumnsPerRow = %d, want 128", got)
	}
}

func TestValidateRejectsBadTimings(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Timing)
	}{
		{"zero CL", func(tm *Timing) { tm.CL = 0 }},
		{"zero RCD", func(tm *Timing) { tm.RCD = 0 }},
		{"zero burst", func(tm *Timing) { tm.BurstCycles = 0 }},
		{"row smaller than line", func(tm *Timing) { tm.RowBytes = 32 }},
		{"FAW below RRD", func(tm *Timing) { tm.FAW = tm.RRD - 1 }},
	}
	for _, tc := range cases {
		tm := DDR31600()
		tc.mut(&tm)
		if err := tm.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid timing", tc.name)
		}
	}
}

func TestBankLifecycle(t *testing.T) {
	tm := DDR31600()
	ch := NewChannel(tm, 1, 8)

	// Fresh bank: ACT legal, RD/PRE not.
	if !ch.CanIssue(CmdActivate, 0, 0, 7, 0) {
		t.Fatal("ACT should be legal on an idle bank at cycle 0")
	}
	if ch.CanIssue(CmdRead, 0, 0, 7, 0) {
		t.Fatal("RD must not be legal on a closed bank")
	}
	if ch.CanIssue(CmdPrecharge, 0, 0, 7, 0) {
		t.Fatal("PRE must not be legal on a closed bank")
	}

	ch.Issue(CmdActivate, 0, 0, 7, 0)
	ch.EndCycle()
	if got := ch.OpenRow(0, 0); got != 7 {
		t.Fatalf("OpenRow = %d, want 7", got)
	}

	// RD must wait tRCD.
	if ch.CanIssue(CmdRead, 0, 0, 7, tm.RCD-1) {
		t.Error("RD legal before tRCD elapsed")
	}
	if !ch.CanIssue(CmdRead, 0, 0, 7, tm.RCD) {
		t.Error("RD illegal at exactly tRCD")
	}
	// RD to the wrong row is never legal.
	if ch.CanIssue(CmdRead, 0, 0, 8, tm.RCD) {
		t.Error("RD legal to a row that is not open")
	}

	done := ch.Issue(CmdRead, 0, 0, 7, tm.RCD)
	if want := tm.RCD + tm.CL + tm.BurstCycles; done != want {
		t.Errorf("read completion = %d, want %d", done, want)
	}
	ch.EndCycle()

	// PRE must wait for tRAS from ACT and tRTP from RD.
	if ch.CanIssue(CmdPrecharge, 0, 0, 0, tm.RAS-1) {
		t.Error("PRE legal before tRAS")
	}
	preAt := maxU64(tm.RAS, tm.RCD+tm.RTP)
	if !ch.CanIssue(CmdPrecharge, 0, 0, 0, preAt) {
		t.Error("PRE illegal after tRAS and tRTP satisfied")
	}
	ch.Issue(CmdPrecharge, 0, 0, 0, preAt)
	ch.EndCycle()
	if got := ch.OpenRow(0, 0); got != RowNone {
		t.Fatalf("OpenRow after PRE = %d, want RowNone", got)
	}

	// ACT must wait tRP after PRE and tRC after prior ACT.
	actAt := maxU64(preAt+tm.RP, tm.RC)
	if ch.CanIssue(CmdActivate, 0, 0, 3, actAt-1) {
		t.Error("ACT legal before tRP/tRC satisfied")
	}
	if !ch.CanIssue(CmdActivate, 0, 0, 3, actAt) {
		t.Error("ACT illegal once tRP and tRC satisfied")
	}
}

func TestCommandBusOnePerCycle(t *testing.T) {
	tm := DDR31600()
	ch := NewChannel(tm, 1, 8)
	ch.Issue(CmdActivate, 0, 0, 1, 0)
	if ch.CanIssue(CmdActivate, 0, 1, 1, 0) {
		t.Fatal("two commands issued in one cycle on the same channel")
	}
	ch.EndCycle()
	// Next cycle, a different bank may activate (tRRD permitting at cycle >= RRD).
	if ch.CanIssue(CmdActivate, 0, 1, 1, tm.RRD-1) {
		t.Fatal("ACT to second bank legal before tRRD")
	}
	if !ch.CanIssue(CmdActivate, 0, 1, 1, tm.RRD) {
		t.Fatal("ACT to second bank illegal at tRRD")
	}
}

func TestFAWLimitsActivates(t *testing.T) {
	tm := DDR31600()
	ch := NewChannel(tm, 1, 8)
	now := uint64(0)
	// Issue four ACTs as fast as tRRD allows.
	for b := 0; b < 4; b++ {
		for !ch.CanIssue(CmdActivate, 0, b, 1, now) {
			now++
		}
		ch.Issue(CmdActivate, 0, b, 1, now)
		ch.EndCycle()
	}
	firstAct := uint64(0)
	// Fifth ACT must wait until firstAct + tFAW.
	fifth := now + tm.RRD
	if ch.CanIssue(CmdActivate, 0, 4, 1, fifth) && fifth < firstAct+tm.FAW {
		t.Fatalf("fifth ACT legal at %d inside tFAW window ending %d", fifth, firstAct+tm.FAW)
	}
	if !ch.CanIssue(CmdActivate, 0, 4, 1, firstAct+tm.FAW) {
		t.Fatalf("fifth ACT illegal at tFAW boundary %d", firstAct+tm.FAW)
	}
}

func TestReadReadGapIsCCD(t *testing.T) {
	tm := DDR31600()
	ch := NewChannel(tm, 1, 8)
	ch.Issue(CmdActivate, 0, 0, 1, 0)
	ch.EndCycle()
	first := tm.RCD
	ch.Issue(CmdRead, 0, 0, 1, first)
	ch.EndCycle()
	if ch.CanIssue(CmdRead, 0, 0, 1, first+tm.CCD-1) {
		t.Error("back-to-back RD legal before tCCD")
	}
	if !ch.CanIssue(CmdRead, 0, 0, 1, first+tm.CCD) {
		t.Error("back-to-back RD illegal at tCCD")
	}
}

func TestWriteToReadTurnaround(t *testing.T) {
	tm := DDR31600()
	ch := NewChannel(tm, 1, 8)
	ch.Issue(CmdActivate, 0, 0, 1, 0)
	ch.EndCycle()
	wrAt := tm.RCD
	ch.Issue(CmdWrite, 0, 0, 1, wrAt)
	ch.EndCycle()
	earliestRead := wrAt + tm.CWL + tm.BurstCycles + tm.WTR
	if ch.CanIssue(CmdRead, 0, 0, 1, earliestRead-1) {
		t.Errorf("RD legal before write-to-read turnaround (cycle %d)", earliestRead-1)
	}
	if !ch.CanIssue(CmdRead, 0, 0, 1, earliestRead) {
		t.Errorf("RD illegal at turnaround boundary %d", earliestRead)
	}
}

func TestWriteRecoveryBeforePrecharge(t *testing.T) {
	tm := DDR31600()
	ch := NewChannel(tm, 1, 8)
	ch.Issue(CmdActivate, 0, 0, 1, 0)
	ch.EndCycle()
	wrAt := tm.RCD
	ch.Issue(CmdWrite, 0, 0, 1, wrAt)
	ch.EndCycle()
	preAt := wrAt + tm.CWL + tm.BurstCycles + tm.WR
	if ch.CanIssue(CmdPrecharge, 0, 0, 0, preAt-1) {
		t.Error("PRE legal before tWR recovery")
	}
	if !ch.CanIssue(CmdPrecharge, 0, 0, 0, maxU64(preAt, tm.RAS)) {
		t.Error("PRE illegal after tWR and tRAS")
	}
}

func TestRefreshBlocksRank(t *testing.T) {
	tm := DDR31600()
	ch := NewChannel(tm, 1, 8)
	now := tm.REFI
	if !ch.RefreshPressure(0, now) {
		t.Fatal("refresh not due at tREFI")
	}
	if !ch.CanIssue(CmdRefresh, 0, 0, 0, now) {
		t.Fatal("REF illegal on a fully precharged rank at tREFI")
	}
	done := ch.Issue(CmdRefresh, 0, 0, 0, now)
	ch.EndCycle()
	if done != now+tm.RFC {
		t.Fatalf("REF completion = %d, want %d", done, now+tm.RFC)
	}
	if ch.CanIssue(CmdActivate, 0, 0, 1, now+tm.RFC-1) {
		t.Error("ACT legal during tRFC")
	}
	if !ch.CanIssue(CmdActivate, 0, 0, 1, now+tm.RFC) {
		t.Error("ACT illegal after tRFC")
	}
	if ch.RefreshPressure(0, now+1) {
		t.Error("refresh still due immediately after REF")
	}
}

func TestRefreshRequiresPrecharged(t *testing.T) {
	tm := DDR31600()
	ch := NewChannel(tm, 1, 8)
	ch.Issue(CmdActivate, 0, 0, 1, 0)
	ch.EndCycle()
	if ch.CanIssue(CmdRefresh, 0, 0, 0, tm.REFI) {
		t.Fatal("REF legal with an open row")
	}
}

func TestDataBusSerializesAcrossBanks(t *testing.T) {
	tm := DDR31600()
	ch := NewChannel(tm, 1, 8)
	ch.Issue(CmdActivate, 0, 0, 1, 0)
	ch.EndCycle()
	ch.Issue(CmdActivate, 0, 1, 1, tm.RRD)
	ch.EndCycle()
	rd1 := tm.RCD
	ch.Issue(CmdRead, 0, 0, 1, rd1)
	ch.EndCycle()
	// Second read on another bank still spaced by tCCD (= burst), keeping
	// the data bus conflict-free.
	rd2 := rd1 + tm.CCD
	if !ch.CanIssue(CmdRead, 0, 1, 1, maxU64(rd2, tm.RRD+tm.RCD)) {
		t.Error("pipelined RD on second bank should be legal at tCCD spacing")
	}
}

func TestChannelStatsCount(t *testing.T) {
	tm := DDR31600()
	ch := NewChannel(tm, 1, 8)
	ch.Issue(CmdActivate, 0, 0, 1, 0)
	ch.EndCycle()
	ch.Issue(CmdRead, 0, 0, 1, tm.RCD)
	ch.EndCycle()
	ch.Issue(CmdWrite, 0, 0, 1, tm.RCD+tm.CCD+tm.CL) // after turnaround slack
	ch.EndCycle()
	s := ch.Stats()
	if s.Activates.Value() != 1 || s.Reads.Value() != 1 || s.Writes.Value() != 1 {
		t.Fatalf("stats = ACT %d RD %d WR %d, want 1/1/1",
			s.Activates.Value(), s.Reads.Value(), s.Writes.Value())
	}
	if s.DataBus.Busy() != 2*tm.BurstCycles {
		t.Fatalf("data bus busy = %d, want %d", s.DataBus.Busy(), 2*tm.BurstCycles)
	}
}

// TestPropertyMonotonicIssueTimes drives a channel with a randomized but
// legal command stream and asserts protocol invariants: Issue never panics
// when CanIssue is true, open-row state stays consistent, and completion
// times never precede issue times.
func TestPropertyMonotonicIssueTimes(t *testing.T) {
	tm := DDR31600()
	f := func(seed int64) bool {
		rng := newSplitMix(uint64(seed))
		ch := NewChannel(tm, 1, 8)
		now := uint64(0)
		for i := 0; i < 500; i++ {
			bank := int(rng.next() % 8)
			row := int64(rng.next() % 64)
			issued := false
			for attempt := 0; attempt < 200 && !issued; attempt++ {
				open := ch.OpenRow(0, bank)
				var cmd Command
				switch {
				case ch.RefreshPressure(0, now) && ch.CanIssue(CmdRefresh, 0, 0, 0, now):
					cmd = CmdRefresh
				case open == RowNone:
					cmd = CmdActivate
				case open != row:
					cmd = CmdPrecharge
				case rng.next()%2 == 0:
					cmd = CmdRead
				default:
					cmd = CmdWrite
				}
				if ch.CanIssue(cmd, 0, bank, row, now) {
					done := ch.Issue(cmd, 0, bank, row, now)
					if done < now {
						t.Logf("completion %d before issue %d", done, now)
						return false
					}
					issued = true
				}
				ch.EndCycle()
				now++
			}
			if !issued {
				t.Logf("command starved for 200 cycles at bank %d", bank)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEarliestIssueExact drives DDR3 and DDR4 channels with random
// legal command streams and checks, between commands, that EarliestIssue
// is exact and CanIssue monotone: for every command, bank and cycle T from
// the cycle asked, CanIssue holds exactly when EarliestIssue <= T. The
// memory controller's readiness memo rests on it. Each stream starts at
// cycle 0 and asks both before and after the cycle's command slot resets.
// A stream runs at least minCmds commands and then on until it has issued
// a refresh, failing at maxCmds. Under DDR4-2400, seed 8448822978030363254
// issues none in its first minCmds commands, so it runs as a fixed case.
func TestPropertyEarliestIssueExact(t *testing.T) {
	const banks, horizon, minCmds, maxCmds = 8, 300, 600, 6000
	cmds := []Command{CmdActivate, CmdPrecharge, CmdRead, CmdWrite, CmdRefresh}
	for _, tc := range []struct {
		name string
		tm   Timing
	}{{"DDR3-1600", DDR31600()}, {"DDR4-2400", DDR42400()}} {
		tm := tc.tm
		f := func(seed int64) bool {
			rng := newSplitMix(uint64(seed))
			ch := NewChannel(tm, 2, banks)
			check := func(now uint64) bool {
				for _, cmd := range cmds {
					rank, bank := int(rng.next()%2), int(rng.next()%banks)
					row := ch.OpenRow(rank, bank)
					if rng.next()%4 == 0 {
						row = int64(rng.next() % 4)
					}
					e := ch.EarliestIssue(cmd, rank, bank, row, now)
					for at := now; at < now+horizon; at++ {
						if ch.CanIssue(cmd, rank, bank, row, at) != (e <= at) {
							t.Logf("%s rank %d bank %d row %d asked at %d: EarliestIssue %d, CanIssue(%d) %v",
								cmd, rank, bank, row, now, e, at, !(e <= at))
							return false
						}
					}
				}
				return true
			}
			now := uint64(0)
			refreshes := 0
			for i := 0; i < minCmds || refreshes == 0 && i < maxCmds; i++ {
				// Mostly rank 0, and an activate whenever the bank is
				// closed, so activate windows fill up.
				rank, bank := int(rng.next()%4/3), int(rng.next()%banks)
				cmd := cmds[1+rng.next()%3]
				if ch.OpenRow(rank, bank) == RowNone {
					cmd = CmdActivate
				}
				if ch.RefreshPressure(rank, now) {
					// Close the rank's banks, then refresh it.
					cmd, bank = CmdRefresh, 0
					for b := 0; b < banks; b++ {
						if ch.OpenRow(rank, b) != RowNone {
							cmd, bank = CmdPrecharge, b
							break
						}
					}
				}
				row := ch.OpenRow(rank, bank)
				if cmd == CmdActivate {
					row = int64(rng.next() % 4)
				}
				if ch.CanIssue(cmd, rank, bank, row, now) {
					ch.Issue(cmd, rank, bank, row, now)
					if cmd == CmdRefresh {
						refreshes++
					}
				}
				if !check(now) {
					return false
				}
				ch.EndCycle()
				if !check(now + 1) {
					return false
				}
				now += 1 + rng.next()%4
				if rng.next()%16 == 0 {
					now += rng.next() % 512 // idle stretch: reach refresh deadlines
				}
			}
			if refreshes == 0 {
				t.Log("no refresh issued")
				return false
			}
			return true
		}
		if !f(8448822978030363254) {
			t.Fatalf("%s: recorded seed 8448822978030363254 failed", tc.name)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
			t.Fatal(err)
		}
	}
}

// splitMix is a tiny deterministic RNG for tests, avoiding math/rand state.
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed} }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func TestEnergyAccounting(t *testing.T) {
	tm := DDR31600()
	ch := NewChannel(tm, 1, 8)
	ch.Issue(CmdActivate, 0, 0, 1, 0)
	ch.EndCycle()
	ch.Issue(CmdRead, 0, 0, 1, tm.RCD)
	ch.EndCycle()
	ch.Issue(CmdWrite, 0, 0, 1, tm.RCD+tm.CL+tm.CCD)
	ch.EndCycle()

	p := DDR31600Power()
	e := ch.Energy(p, 1000)
	if e.ActPre != p.ActPreNJ*1e-3 {
		t.Errorf("ActPre energy = %v uJ", e.ActPre)
	}
	if e.Read != p.ReadBurstNJ*1e-3 || e.Write != p.WriteBurstNJ*1e-3 {
		t.Errorf("column energies = %v/%v uJ", e.Read, e.Write)
	}
	// Background: 380 mW for 1000 cycles at 1.25 ns = 1.25 us -> 0.475 uJ.
	if e.Background < 0.47 || e.Background > 0.48 {
		t.Errorf("background = %v uJ, want ~0.475", e.Background)
	}
	if e.Total() <= e.Background {
		t.Error("total must include command energy")
	}
	if e.Refresh != 0 {
		t.Error("no refresh issued but refresh energy nonzero")
	}
}

func TestEnergyScalesWithTraffic(t *testing.T) {
	tm := DDR31600()
	busy := NewChannel(tm, 1, 8)
	idle := NewChannel(tm, 1, 8)
	busy.Issue(CmdActivate, 0, 0, 1, 0)
	busy.EndCycle()
	now := tm.RCD
	for i := 0; i < 50; i++ {
		for !busy.CanIssue(CmdRead, 0, 0, 1, now) {
			now++
			busy.EndCycle()
		}
		busy.Issue(CmdRead, 0, 0, 1, now)
		busy.EndCycle()
	}
	p := DDR31600Power()
	if busy.Energy(p, now).Total() <= idle.Energy(p, now).Total() {
		t.Error("busy channel must consume more energy than idle one")
	}
}

func TestDDR4BankGroups(t *testing.T) {
	tm := DDR42400()
	if err := tm.Validate(); err != nil {
		t.Fatal(err)
	}
	ch := NewChannel(tm, 1, 16)
	// Open two rows: bank 0 and bank 4 share group 0 (bank%4); bank 1 is
	// in group 1.
	now := uint64(0)
	for _, b := range []int{0, 4, 1} {
		for !ch.CanIssue(CmdActivate, 0, b, 1, now) {
			now++
			ch.EndCycle()
		}
		ch.Issue(CmdActivate, 0, b, 1, now)
		ch.EndCycle()
		now++
	}
	// Let every bank's tRCD elapse so only CAS spacing is at play.
	first := now + tm.RCD + 10
	ch.Issue(CmdRead, 0, 0, 1, first)
	ch.EndCycle()
	// Same group (bank 4): must wait tCCD_L; different group (bank 1):
	// ready at tCCD_S.
	if ch.CanIssue(CmdRead, 0, 4, 1, first+tm.CCD) {
		t.Error("same-group CAS legal at tCCD_S; must wait tCCD_L")
	}
	if !ch.CanIssue(CmdRead, 0, 4, 1, first+tm.CCDL) {
		t.Error("same-group CAS illegal at tCCD_L")
	}
	if !ch.CanIssue(CmdRead, 0, 1, 1, first+tm.CCD) {
		t.Error("cross-group CAS illegal at tCCD_S")
	}
}

func TestDDR4ActSpacing(t *testing.T) {
	tm := DDR42400()
	ch := NewChannel(tm, 1, 16)
	ch.Issue(CmdActivate, 0, 0, 1, 0)
	ch.EndCycle()
	// Same group (bank 4): tRRD_L; cross group (bank 1): tRRD_S.
	if ch.CanIssue(CmdActivate, 0, 4, 1, tm.RRD) {
		t.Error("same-group ACT legal at tRRD_S; must wait tRRD_L")
	}
	if !ch.CanIssue(CmdActivate, 0, 4, 1, tm.RRDL) {
		t.Error("same-group ACT illegal at tRRD_L")
	}
	if !ch.CanIssue(CmdActivate, 0, 1, 1, tm.RRD) {
		t.Error("cross-group ACT illegal at tRRD_S")
	}
}

func TestDDR3HasNoGroupPenalty(t *testing.T) {
	tm := DDR31600()
	ch := NewChannel(tm, 1, 8)
	ch.Issue(CmdActivate, 0, 0, 1, 0)
	ch.EndCycle()
	ch.Issue(CmdRead, 0, 0, 1, tm.RCD)
	ch.EndCycle()
	// DDR3: uniform tCCD regardless of banks.
	if !ch.CanIssue(CmdRead, 0, 0, 1, tm.RCD+tm.CCD) {
		t.Error("DDR3 CAS spacing should be plain tCCD")
	}
}
