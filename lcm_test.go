package lcm_test

import (
	"testing"

	"lcm"
)

// The tests in this file exercise the public facade exactly as a library
// user would — they double as compile-time checks that the re-exported API
// is complete enough to write real programs against.

func TestPublicQuickstartFlow(t *testing.T) {
	m := lcm.NewMachine(lcm.MachineConfig{Nodes: 4, System: lcm.LCMmcc})
	a := lcm.NewMatrixF32(m, "A", 16, 16, lcm.LooselyCoherent(), lcm.Interleaved)
	red := lcm.NewReduceF64(m, "sum", lcm.LCMmcc)
	m.Freeze()

	for j := 0; j < 16; j++ {
		a.Poke(0, j, 10)
	}

	plan := lcm.Lower(lcm.AccessSummary{WritesOwnElementOnly: true, ReadsSharedData: true}, lcm.LCMmcc)
	if plan.Mode.String() != "lcm" || !plan.FlushBetweenInvocations {
		t.Fatalf("plan %+v", plan)
	}

	m.Run(func(n *lcm.Node) {
		lcm.ForEach(n, lcm.StaticSchedule{}, plan, 0, 14*14, func(idx int) {
			i, j := 1+idx/14, 1+idx%14
			v := (a.Get(n, i-1, j) + a.Get(n, i+1, j) + a.Get(n, i, j-1) + a.Get(n, i, j+1)) / 4
			a.Set(n, i, j, v)
		})
		lcm.EndParallel(n)
		lcm.ForEach(n, lcm.StaticSchedule{}, plan, 0, 16*16, func(idx int) {
			red.Add(n, float64(a.Get(n, idx/16, idx%16)))
		})
		red.Reduce(n)
	})

	var total float64
	m.Run(func(n *lcm.Node) {
		if n.ID == 0 {
			total = red.Value(n)
		}
		n.Barrier()
	})
	if total <= 0 {
		t.Fatalf("total = %v", total)
	}
	if m.MaxClock() <= 0 || m.TotalCounters().Misses == 0 {
		t.Fatal("no simulated activity recorded")
	}
	if s := m.Shared; s.WriteConflicts != 0 {
		t.Fatalf("unexpected conflicts: %d", s.WriteConflicts)
	}
}

func TestPublicDefaults(t *testing.T) {
	m := lcm.NewMachine(lcm.MachineConfig{})
	if m.P != 32 || m.AS.BlockSize != 32 {
		t.Fatalf("defaults: P=%d block=%d", m.P, m.AS.BlockSize)
	}
	if m.Protocol().Name() != "stache" {
		t.Fatalf("default protocol %q (zero-value System is the Copying baseline)", m.Protocol().Name())
	}
	c := lcm.DefaultCost()
	if c.RemoteRoundTrip <= c.LocalFill || c.LocalFill <= c.CacheHit {
		t.Fatal("cost ordering")
	}
}

func TestPublicConflictDetection(t *testing.T) {
	m := lcm.NewMachine(lcm.MachineConfig{Nodes: 2, System: lcm.LCMscc})
	v := lcm.NewVectorI32(m, "v", 8, lcm.Detect(false), lcm.Interleaved)
	m.Freeze()
	m.Run(func(n *lcm.Node) {
		v.Set(n, 0, int32(n.ID+1)) // both nodes, same element
		n.ReconcileCopies()
	})
	cs := lcm.Conflicts(m)
	if len(cs) != 1 || cs[0].Kind != lcm.WriteWrite {
		t.Fatalf("conflicts = %v", cs)
	}
	// The Copying baseline has no detector; Conflicts returns nil.
	m2 := lcm.NewMachine(lcm.MachineConfig{Nodes: 2, System: lcm.Copying})
	lcm.NewVectorI32(m2, "v", 8, lcm.Coherent(), lcm.Interleaved)
	m2.Freeze()
	if lcm.Conflicts(m2) != nil {
		t.Fatal("baseline should report no conflict machinery")
	}
}

func TestPublicCustomReconciler(t *testing.T) {
	// A user-defined reconciliation function: bitwise OR of written
	// words, a policy none of the built-ins provide.
	m := lcm.NewMachine(lcm.MachineConfig{Nodes: 4, System: lcm.LCMmcc})
	orMerge := lcm.Func{Elem: 4, F: func(pending, incoming, clean []byte, prior bool) bool {
		for i := range pending {
			pending[i] |= incoming[i]
		}
		return false
	}}
	v := lcm.NewVectorI32(m, "flags", 8, lcm.Reduction(orMerge), lcm.SingleHome)
	m.Freeze()
	m.Run(func(n *lcm.Node) {
		v.Set(n, 0, 1<<uint(n.ID))
		n.ReconcileCopies()
		if got := v.Get(n, 0); got != 0b1111 {
			t.Errorf("node %d: merged flags %#b", n.ID, got)
		}
	})
}

func TestPublicStaleAndDropCopy(t *testing.T) {
	m := lcm.NewMachine(lcm.MachineConfig{Nodes: 2, System: lcm.LCMmcc})
	v := lcm.NewVectorF32(m, "field", 8, lcm.Stale(100), lcm.SingleHome)
	m.Freeze()
	m.Run(func(n *lcm.Node) {
		if n.ID == 1 {
			_ = v.Get(n, 0)
		}
		n.Barrier()
		if n.ID == 0 {
			v.Set(n, 0, 42)
		}
		n.ReconcileCopies()
		if n.ID == 1 {
			// Generous staleness: the old copy survives...
			if got := v.Get(n, 0); got != 0 {
				t.Errorf("expected stale 0, got %v", got)
			}
			// ...until the consumer refreshes it explicitly.
			n.DropCopy(v.Addr(0))
			if got := v.Get(n, 0); got != 42 {
				t.Errorf("expected fresh 42 after DropCopy, got %v", got)
			}
		}
		n.Barrier()
	})
}

func TestPublicSimLock(t *testing.T) {
	m := lcm.NewMachine(lcm.MachineConfig{Nodes: 4, System: lcm.Copying})
	v := lcm.NewVectorI64(m, "counter", 1, lcm.Coherent(), lcm.SingleHome)
	m.Freeze()
	var lk lcm.SimLock
	m.Run(func(n *lcm.Node) {
		for i := 0; i < 10; i++ {
			lk.Acquire(n)
			v.Set(n, 0, v.Get(n, 0)+1)
			lk.Release(n)
		}
	})
	if got := v.Peek(0); got != 40 {
		t.Fatalf("lock-protected counter = %d, want 40", got)
	}
}
