package delegator

import "testing"

// TestAccessSteadyStateAllocs guards the ORAM request path: once the free
// lists, the queues and the position map have grown to their working size,
// one ORAM access through the engine and the SD allocates nothing, real
// or dummy, with tree-top split k=1 so remote (+k) reads and writes run.
func TestAccessSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		real bool
	}{{"real", true}, {"dummy", false}} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 1, DefaultPace)
			st := r.sd.Stats()
			var now, i uint64
			onDone := func(uint64) {}
			access := func() {
				if tc.real {
					// 64 blocks, so the position map stops growing.
					r.engine.Access(i%2 == 0, (i%64)*64, now, onDone)
				}
				i++
				want := st.Accesses.Value() + 1
				for st.Accesses.Value() < want {
					now = r.run(now, 1)
				}
			}
			for k := 0; k < 1000; k++ {
				access()
			}
			reals, dummies, remotes := st.RealAccesses.Value(), st.DummyAccesses.Value(), st.RemoteBlocks.Value()
			if a := testing.AllocsPerRun(500, access); a != 0 {
				t.Errorf("a steady-state ORAM access allocates %v times, want 0", a)
			}
			gotReal, gotDummy := st.RealAccesses.Value() > reals, st.DummyAccesses.Value() > dummies
			if gotReal != tc.real || gotDummy == tc.real {
				t.Fatalf("measured %d real and %d dummy accesses, want only %s ones",
					st.RealAccesses.Value()-reals, st.DummyAccesses.Value()-dummies, tc.name)
			}
			if st.RemoteBlocks.Value() == remotes {
				t.Fatal("no remote block moved: the +k path went unmeasured")
			}
		})
	}
}
