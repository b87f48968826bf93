package mc

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"doram/internal/dram"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// schedulerConfigs are the scheduler oracles' configurations: both memory
// generations × cooperative preallocation off and on under FR-FCFS, with
// small queues and a short starvation age so back-pressure, watermark
// drain and aged requests all occur. Names keep the "fr-fcfs" segment
// because scheduler_stream.golden records them.
func schedulerConfigs() []struct {
	name   string
	timing dram.Timing
	banks  int
	cfg    Config
} {
	type entry = struct {
		name   string
		timing dram.Timing
		banks  int
		cfg    Config
	}
	var out []entry
	for _, tm := range []struct {
		name   string
		timing dram.Timing
		banks  int
	}{
		{"ddr3", dram.DDR31600(), 8},
		{"ddr4", dram.DDR42400(), 16},
	} {
		for _, coop := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.CoopEnabled = coop
			cfg.ReadQueueCap, cfg.WriteQueueCap = 16, 16
			cfg.WriteDrainHi, cfg.WriteDrainLo = 12, 6
			cfg.StarvationAge = 200
			out = append(out, entry{fmt.Sprintf("%s/fr-fcfs/coop=%v", tm.name, coop), tm.timing, tm.banks, cfg})
		}
	}
	return out
}

// streamDigest runs one seeded stream through a controller and summarizes
// the outcome in one line: the number of requests offered and admitted, a
// SHA-256 over every request's (admitted, IssuedAt, done) in offer order,
// the channel's command counts and the controller's row hits and misses.
// With lazy set the controller is driven as the fast-forwarding run loop
// drives it: ticked only on cycles NextEvent names or that enqueued a
// request, with Skip accounting the cycles in between. Otherwise it is
// ticked every cycle, as the reference loop does. Either way every
// completion must be delivered on the cycle its transfer finishes.
func streamDigest(t *testing.T, timing dram.Timing, cfg Config, gen *streamGen, lazy bool) (string, QueueStats) {
	t.Helper()
	c := New(dram.NewChannel(timing, 2, gen.banks), cfg)
	seed := gen.seed
	var log []completion
	var now, next, settled uint64 // next: cycle to tick; settled: first cycle not yet accounted
	for ; now < streamHorizon || !c.Idle(); now++ {
		if now > streamHorizon+1_000_000 {
			t.Fatalf("seed %d: controller never drained", seed)
		}
		op, secure, at, offered := gen.next(now)
		if lazy && !offered && now < next {
			continue
		}
		if now > settled {
			c.Skip(now - settled)
		}
		if offered {
			i := len(log)
			log = append(log, completion{})
			r := &Request{Op: op, Coord: at, Secure: secure, OnComplete: func(r *Request, done uint64) {
				if done != now {
					t.Fatalf("seed %d: request %d done at cycle %d was delivered at %d", seed, i, done, now)
				}
				log[i].issuedAt, log[i].done = r.IssuedAt, done
				log[i].calls++
			}}
			log[i].admitted = c.Enqueue(r, now)
		}
		c.Tick(now)
		settled, next = now+1, c.NextEvent(now)
	}
	if now > settled {
		c.Skip(now - settled)
	}
	h := sha256.New()
	admitted := 0
	for i, e := range log {
		if e.admitted {
			admitted++
		}
		if e.calls > 1 || e.admitted != (e.calls == 1) {
			t.Fatalf("seed %d: request %d (admitted %v) completed %d times", seed, i, e.admitted, e.calls)
		}
		fmt.Fprintf(h, "%v %d %d\n", e.admitted, e.issuedAt, e.done)
	}
	cs, qs := c.Channel().Stats(), c.Stats()
	line := fmt.Sprintf("seed=%d requests=%d admitted=%d stream=%x act=%d pre=%d rd=%d wr=%d ref=%d row_hits=%d row_misses=%d",
		seed, len(log), admitted, h.Sum(nil)[:16],
		cs.Activates.Value(), cs.Precharges.Value(), cs.Reads.Value(), cs.Writes.Value(), cs.Refreshes.Value(),
		qs.RowHits.Value(), qs.RowMisses.Value())
	return line, *qs
}

// TestSchedulerStream pins the scheduler's picks. The quiet-window oracle
// runs one scheduling implementation on both of its sides, so it cannot
// see a change that moves a pick; this golden, written before the
// scheduler was last optimised, can. Every request's issue and completion
// cycle is hashed per configuration and seed. The stream is run twice,
// ticked every cycle and driven by NextEvent, and both runs must agree
// with each other and with the golden. Regenerate with
// `go test -run TestSchedulerStream -update-golden ./internal/mc` only
// for an intentional scheduling change.
func TestSchedulerStream(t *testing.T) {
	var got bytes.Buffer
	for _, sc := range schedulerConfigs() {
		for seed := int64(1); seed <= 3; seed++ {
			line, stats := streamDigest(t, sc.timing, sc.cfg, newStreamGen(seed, sc.banks), false)
			lazyLine, lazyStats := streamDigest(t, sc.timing, sc.cfg, newStreamGen(seed, sc.banks), true)
			if lazyLine != line || !reflect.DeepEqual(lazyStats, stats) {
				t.Fatalf("%s seed %d: driven by NextEvent the controller ran\n  %s %+v\nticked every cycle\n  %s %+v",
					sc.name, seed, lazyLine, lazyStats, line, stats)
			}
			fmt.Fprintf(&got, "%s %s\n", sc.name, line)
		}
	}
	golden := filepath.Join("testdata", "scheduler_stream.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to regenerate)", err)
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range gotLines {
		if i >= len(wantLines) || !bytes.Equal(gotLines[i], wantLines[i]) {
			var w []byte
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("scheduler stream diverged from %s at line %d:\n  got  %s\n  want %s", golden, i+1, gotLines[i], w)
		}
	}
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%s has %d lines, the run produced %d", golden, len(wantLines), len(gotLines))
	}
}

// TestWideRowsScheduleAlike checks the queue entries' 32-bit row keys.
// Rows are only labels to the scheduler, so moving every row of a stream
// by a constant must not move a pick, also where some or all rows fall
// outside int32 and compare through the request.
func TestWideRowsScheduleAlike(t *testing.T) {
	for _, sc := range schedulerConfigs() {
		want, _ := streamDigest(t, sc.timing, sc.cfg, newStreamGen(1, sc.banks), false)
		for _, base := range []int64{math.MaxInt32 - 2, math.MinInt32 - 3, 1 << 40} {
			gen := newStreamGen(1, sc.banks)
			gen.rowBase = base
			if got, _ := streamDigest(t, sc.timing, sc.cfg, gen, false); got != want {
				t.Errorf("%s: rows from %d scheduled\n  %s\nrows from 0\n  %s", sc.name, base, got, want)
			}
		}
	}
}
