package workloads

import (
	"testing"

	"lcm/internal/cstar"
)

// Golden accounting tests: protocol event counts for fixed configurations
// are fully deterministic (fault counts depend only on the access
// schedule, not on goroutine interleaving), so any drift signals an
// unintended change to protocol accounting.  Update the numbers only for
// deliberate protocol changes, and update EXPERIMENTS.md alongside.

type golden struct {
	misses, marks, flushes int64
	cleanHome, cleanLocal  int64
}

func snapshot(r Result) golden {
	return golden{
		misses:     r.C.Misses,
		marks:      r.C.Marks,
		flushes:    r.C.Flushes,
		cleanHome:  r.S.CleanCopiesHome,
		cleanLocal: r.S.CleanCopiesLocal,
	}
}

func TestGoldenStencilCounts(t *testing.T) {
	cfg := Config{P: 8, Verify: true}
	spec := StencilSpec{N: 64, Iters: 4, Sched: "static"}
	for _, tc := range []struct {
		sys  cstar.System
		want golden
	}{
		{cstar.Copying, golden{misses: 1520, marks: 0, flushes: 0, cleanHome: 0, cleanLocal: 0}},
		{cstar.LCMscc, golden{misses: 17788, marks: 15376, flushes: 15376, cleanHome: 1984, cleanLocal: 0}},
		{cstar.LCMmcc, golden{misses: 2472, marks: 15376, flushes: 15376, cleanHome: 1984, cleanLocal: 2008}},
	} {
		// The goldens must hold both through the span fast path and the
		// per-element fallback.
		for _, scalar := range []bool{false, true} {
			c := cfg
			if scalar {
				c = scalarAccess(cfg)
			}
			r := RunStencil(tc.sys, spec, c)
			if r.Err != nil {
				t.Fatalf("%v (scalar=%v): %v", tc.sys, scalar, r.Err)
			}
			if got := snapshot(r); got != tc.want {
				t.Errorf("%v (scalar=%v): counts drifted:\n got  %+v\n want %+v",
					tc.sys, scalar, got, tc.want)
			}
		}
	}
}

func TestGoldenCountsStableAcrossRuns(t *testing.T) {
	// The counts above must not depend on goroutine interleaving.
	cfg := Config{P: 8}
	spec := StencilSpec{N: 48, Iters: 3, Sched: "dynamic"}
	first := snapshot(RunStencil(cstar.LCMmcc, spec, cfg))
	for i := 0; i < 3; i++ {
		if got := snapshot(RunStencil(cstar.LCMmcc, spec, cfg)); got != first {
			t.Fatalf("run %d: counts vary: %+v vs %+v", i, got, first)
		}
	}
}
