package core

import (
	"testing"

	"lcm/internal/cost"
	"lcm/internal/memsys"
	"lcm/internal/tempest"
)

type testMachine struct {
	m    *tempest.Machine
	data *memsys.Region
	lcm  *LCM
}

func newLCMMachine(t *testing.T, v Variant, p int, blocks uint64, pol Policy) *testMachine {
	t.Helper()
	m := tempest.New(p, 32, cost.Default())
	r := m.AS.Alloc("data", blocks*32, memsys.KindLCM, memsys.Interleaved)
	if err := pol.ApplyTo(r); err != nil {
		t.Fatalf("ApplyTo: %v", err)
	}
	pr := New(v)
	m.SetProtocol(pr)
	m.Freeze()
	return &testMachine{m: m, data: r, lcm: pr}
}

// addr returns the address of 32-bit element i of the data region.
func (tm *testMachine) addr(i int) memsys.Addr { return tm.data.Base + memsys.Addr(i*4) }

func TestWritesArePrivateUntilReconcile(t *testing.T) {
	for _, v := range []Variant{SCC, MCC} {
		t.Run(v.String(), func(t *testing.T) {
			tm := newLCMMachine(t, v, 2, 4, LooselyCoherent())
			tm.m.Run(func(n *tempest.Node) {
				if n.ID == 0 {
					n.WriteU32(tm.addr(0), 111)
				}
				n.Barrier()
				// Node 1 must still see the pre-phase value: the
				// modification is private to node 0's invocation.
				if n.ID == 1 {
					if got := n.ReadU32(tm.addr(0)); got != 0 {
						t.Errorf("mid-phase read = %d, want 0", got)
					}
				}
				n.ReconcileCopies()
				// After reconciliation the write is globally visible.
				if got := n.ReadU32(tm.addr(0)); got != 111 {
					t.Errorf("node %d post-reconcile read = %d, want 111", n.ID, got)
				}
			})
		})
	}
}

func TestWriterSeesOwnWritesWithinInvocation(t *testing.T) {
	tm := newLCMMachine(t, MCC, 1, 4, LooselyCoherent())
	tm.m.Run(func(n *tempest.Node) {
		n.WriteU32(tm.addr(0), 5)
		if got := n.ReadU32(tm.addr(0)); got != 5 {
			t.Errorf("own write not visible: %d", got)
		}
	})
}

func TestFlushHidesWritesFromNextInvocation(t *testing.T) {
	// Section 5.1: "A subsequent read of one of these blocks returns its
	// original value from the clean copy."
	for _, v := range []Variant{SCC, MCC} {
		t.Run(v.String(), func(t *testing.T) {
			tm := newLCMMachine(t, v, 1, 4, LooselyCoherent())
			tm.m.Run(func(n *tempest.Node) {
				n.WriteU32(tm.addr(0), 7) // invocation 1
				n.FlushCopies()
				// Invocation 2 reads the ORIGINAL value.
				if got := n.ReadU32(tm.addr(0)); got != 0 {
					t.Errorf("post-flush read = %d, want 0", got)
				}
				n.ReconcileCopies()
				if got := n.ReadU32(tm.addr(0)); got != 7 {
					t.Errorf("post-reconcile read = %d, want 7", got)
				}
			})
		})
	}
}

func TestSCCFlushRefetchesButMCCDoesNot(t *testing.T) {
	// The central scc/mcc distinction: after a flush, re-marking the
	// same block costs scc a miss (fetch clean copy from home) and mcc
	// nothing (local clean copy).
	missOf := func(v Variant) (misses, marks int64) {
		tm := newLCMMachine(t, v, 2, 4, LooselyCoherent())
		tm.m.Run(func(n *tempest.Node) {
			if n.ID != 0 {
				n.ReconcileCopies()
				return
			}
			for i := 0; i < 10; i++ {
				n.WriteU32(tm.addr(i%8), uint32(i)) // same block
				n.FlushCopies()
			}
			n.ReconcileCopies()
		})
		c := tm.m.TotalCounters()
		return c.Misses, c.Marks
	}
	sccMiss, _ := missOf(SCC)
	mccMiss, _ := missOf(MCC)
	if sccMiss != 10 {
		t.Fatalf("scc misses = %d, want 10 (one refetch per flushed invocation)", sccMiss)
	}
	if mccMiss != 1 {
		t.Fatalf("mcc misses = %d, want 1 (clean copy satisfies re-marks)", mccMiss)
	}
}

func TestCleanCopyCounters(t *testing.T) {
	// One block written by two nodes in one phase: one home clean copy;
	// mcc additionally one local clean copy per marking node.
	for _, tc := range []struct {
		v           Variant
		home, local int64
	}{{SCC, 1, 0}, {MCC, 1, 2}} {
		t.Run(tc.v.String(), func(t *testing.T) {
			tm := newLCMMachine(t, tc.v, 2, 4, LooselyCoherent())
			tm.m.Run(func(n *tempest.Node) {
				n.WriteU32(tm.addr(n.ID), uint32(n.ID+1))
				n.ReconcileCopies()
			})
			s := tm.m.Shared
			if s.CleanCopiesHome != tc.home || s.CleanCopiesLocal != tc.local {
				t.Fatalf("clean copies home=%d local=%d, want %d/%d",
					s.CleanCopiesHome, s.CleanCopiesLocal, tc.home, tc.local)
			}
		})
	}
}

func TestDisjointWritesMergeWithoutConflict(t *testing.T) {
	// Two nodes modify different elements of the same block; both values
	// must survive reconciliation (fine-grain merge, not block
	// overwrite), with no conflict recorded.
	tm := newLCMMachine(t, MCC, 2, 4, LooselyCoherent())
	tm.m.Run(func(n *tempest.Node) {
		n.WriteU32(tm.addr(n.ID), uint32(100+n.ID))
		n.ReconcileCopies()
		if got := n.ReadU32(tm.addr(0)); got != 100 {
			t.Errorf("elem 0 = %d, want 100", got)
		}
		if got := n.ReadU32(tm.addr(1)); got != 101 {
			t.Errorf("elem 1 = %d, want 101", got)
		}
	})
	if s := tm.m.Shared; s.WriteConflicts != 0 {
		t.Fatalf("conflicts = %d, want 0", s.WriteConflicts)
	}
}

func TestConflictingWritesOneSurvives(t *testing.T) {
	// C**: "if two or more invocations modify the same location, exactly
	// one modified value will be visible after this merge."
	tm := newLCMMachine(t, MCC, 3, 4, LooselyCoherent())
	tm.m.Run(func(n *tempest.Node) {
		n.WriteU32(tm.addr(0), uint32(n.ID+1))
		n.ReconcileCopies()
		got := n.ReadU32(tm.addr(0))
		if got != 1 && got != 2 && got != 3 {
			t.Errorf("merged value %d is none of the written values", got)
		}
	})
	if s := tm.m.Shared; s.WriteConflicts < 1 {
		t.Fatalf("conflicts = %d, want >= 1", s.WriteConflicts)
	}
}

func TestUnmodifiedReadCopiesSurviveReconcile(t *testing.T) {
	// Threshold's key behaviour: reconciliation invalidates outstanding
	// copies of MODIFIED blocks only; untouched read-only copies stay.
	tm := newLCMMachine(t, MCC, 2, 8, LooselyCoherent())
	tm.m.Run(func(n *tempest.Node) {
		n.ReadU32(tm.addr(0))  // block 0: read by everyone
		n.ReadU32(tm.addr(63)) // block 7 (elem 63 = block 7): read-only
		n.Barrier()
		if n.ID == 0 {
			n.WriteU32(tm.addr(1), 9) // modify block 0 only
		}
		n.ReconcileCopies()
		// Re-reads: block 7 must hit (copy survived), block 0 must miss.
		before := n.Ctr.Misses
		n.ReadU32(tm.addr(63))
		if n.Ctr.Misses != before {
			t.Errorf("node %d: unmodified block was invalidated", n.ID)
		}
		before = n.Ctr.Misses
		n.ReadU32(tm.addr(0))
		if n.Ctr.Misses != before+1 {
			t.Errorf("node %d: modified block copy not invalidated", n.ID)
		}
	})
}

func TestReductionRegionSums(t *testing.T) {
	// Section 7.1: reconciliation implements a global sum.
	m := tempest.New(4, 32, cost.Default())
	r := m.AS.Alloc("total", 8, memsys.KindLCM, memsys.SingleHome)
	if err := Reduction(SumI64{}).ApplyTo(r); err != nil {
		t.Fatalf("ApplyTo: %v", err)
	}
	pr := New(MCC)
	m.SetProtocol(pr)
	m.Freeze()
	m.Run(func(n *tempest.Node) {
		// Each node accumulates locally over several "invocations",
		// flushing between them as the compiler would.
		for i := 0; i < 5; i++ {
			v := tempest.Read[int64](n, r.Base)
			tempest.Write(n, r.Base, v+int64(n.ID+1))
			n.FlushCopies()
		}
		n.ReconcileCopies()
		want := int64(5 * (1 + 2 + 3 + 4))
		if got := tempest.Read[int64](n, r.Base); got != want {
			t.Errorf("node %d total = %d, want %d", n.ID, got, want)
		}
	})
	if s := m.Shared; s.WriteConflicts != 0 {
		t.Fatalf("reduction reported %d conflicts", s.WriteConflicts)
	}
}

func TestCoherentRegionFallsThroughToStache(t *testing.T) {
	m := tempest.New(2, 32, cost.Default())
	lcmR := m.AS.Alloc("lcm", 32, memsys.KindLCM, memsys.Interleaved)
	cohR := m.AS.Alloc("coh", 32, memsys.KindCoherent, memsys.Interleaved)
	pr := New(MCC)
	m.SetProtocol(pr)
	m.Freeze()
	m.Run(func(n *tempest.Node) {
		if n.ID == 0 {
			n.WriteU32(cohR.Base, 77) // coherent: sequentially consistent
			n.WriteU32(lcmR.Base, 88) // loose: private
		}
		n.Barrier()
		if n.ID == 1 {
			// Coherent write is immediately visible via the protocol.
			if got := n.ReadU32(cohR.Base); got != 77 {
				t.Errorf("coherent read = %d, want 77", got)
			}
			// Loose write is not.
			if got := n.ReadU32(lcmR.Base); got != 0 {
				t.Errorf("loose read = %d, want 0", got)
			}
		}
		n.ReconcileCopies()
		if got := n.ReadU32(lcmR.Base); got != 88 {
			t.Errorf("node %d post-reconcile = %d, want 88", n.ID, got)
		}
	})
}

func TestWriteWriteConflictDetection(t *testing.T) {
	tm := newLCMMachine(t, MCC, 2, 4, Detect(false))
	tm.m.Run(func(n *tempest.Node) {
		n.WriteU32(tm.addr(0), uint32(10+n.ID)) // same element, different values
		n.ReconcileCopies()
	})
	cs := tm.lcm.Conflicts()
	if len(cs) == 0 {
		t.Fatal("no conflicts detected")
	}
	if cs[0].Kind != WriteWrite || cs[0].Elem != 0 {
		t.Fatalf("conflict = %+v", cs[0])
	}
	if cs[0].Region != "data" {
		t.Fatalf("conflict region = %q", cs[0].Region)
	}
}

func TestReadWriteConflictDetection(t *testing.T) {
	tm := newLCMMachine(t, MCC, 2, 4, Detect(true))
	tm.m.Run(func(n *tempest.Node) {
		if n.ID == 0 {
			_ = n.ReadU32(tm.addr(0)) // reader
		} else {
			n.WriteU32(tm.addr(1), 5) // writer, same block
		}
		n.ReconcileCopies()
	})
	found := false
	for _, c := range tm.lcm.Conflicts() {
		if c.Kind == ReadWrite {
			found = true
		}
	}
	if !found {
		t.Fatal("read-write conflict not detected")
	}
	if got := tm.m.Shared.ReadWriteConflicts; got != 1 {
		t.Fatalf("ReadWriteConflicts = %d, want 1", got)
	}
}

func TestFlushReadsCatchesSecondPhaseViolation(t *testing.T) {
	// Without FlushReads, a retained read-only copy from phase 1 hides a
	// phase-2 read-write violation; with it, the read faults again.
	run := func(actual bool) int64 {
		tm := newLCMMachine(t, MCC, 2, 4, Detect(actual))
		tm.m.Run(func(n *tempest.Node) {
			if n.ID == 0 {
				_ = n.ReadU32(tm.addr(0)) // phase 1: read only
			}
			n.ReconcileCopies()
			if n.ID == 0 {
				_ = n.ReadU32(tm.addr(0)) // phase 2: read again
			} else {
				n.WriteU32(tm.addr(1), 3) // phase 2: write same block
			}
			n.ReconcileCopies()
		})
		return tm.m.Shared.ReadWriteConflicts
	}
	if got := run(false); got != 0 {
		t.Fatalf("potential mode flagged %d violations, want 0 (read did not fault)", got)
	}
	if got := run(true); got != 1 {
		t.Fatalf("actual mode flagged %d violations, want 1", got)
	}
}

func TestStaleDataPolicy(t *testing.T) {
	// Section 7.5: a consumer's copy survives producer updates for
	// StalePhases reconciliations, then is refreshed.
	m := tempest.New(2, 32, cost.Default())
	r := m.AS.Alloc("field", 32, memsys.KindLCM, memsys.SingleHome)
	if err := Stale(2).ApplyTo(r); err != nil {
		t.Fatalf("ApplyTo: %v", err)
	}
	pr := New(MCC)
	m.SetProtocol(pr)
	m.Freeze()
	m.Run(func(n *tempest.Node) {
		if n.ID == 1 {
			_ = n.ReadU32(r.Base) // consumer caches value 0
		}
		n.Barrier()
		var got [4]uint32
		for ph := 0; ph < 4; ph++ {
			if n.ID == 0 {
				n.WriteU32(r.Base, uint32(ph+1)) // producer updates
			}
			n.ReconcileCopies()
			if n.ID == 1 {
				got[ph] = n.ReadU32(r.Base)
			}
		}
		if n.ID == 1 {
			// The copy survives up to StalePhases commits, then is
			// refreshed: the consumer's value may lag the producer's
			// by at most 2 phases, and the first reads must actually
			// be stale (or keeping copies bought nothing).
			if got != [4]uint32{0, 0, 3, 3} {
				t.Errorf("stale read sequence = %v, want [0 0 3 3]", got)
			}
			for ph, v := range got {
				latest := uint32(ph + 1)
				if v > latest || latest-v > 2 {
					t.Errorf("phase %d read %d lags more than StalePhases behind %d", ph+1, v, latest)
				}
			}
		}
	})
}

func TestReconcilePhaseAdvances(t *testing.T) {
	tm := newLCMMachine(t, MCC, 2, 4, LooselyCoherent())
	if tm.lcm.Phase() != 1 {
		t.Fatalf("initial phase = %d", tm.lcm.Phase())
	}
	tm.m.Run(func(n *tempest.Node) {
		n.ReconcileCopies()
		n.ReconcileCopies()
	})
	if tm.lcm.Phase() != 3 {
		t.Fatalf("phase = %d, want 3", tm.lcm.Phase())
	}
}

func TestExplicitMarkDirective(t *testing.T) {
	// The compiler may mark before writing; the write then proceeds
	// without a second fault.
	tm := newLCMMachine(t, MCC, 1, 4, LooselyCoherent())
	tm.m.Run(func(n *tempest.Node) {
		n.Mark(tm.addr(0))
		before := n.Ctr.Marks
		n.WriteU32(tm.addr(0), 1) // no fault: already private
		if n.Ctr.Marks != before {
			t.Error("write after mark re-marked")
		}
		n.ReconcileCopies()
		if got := n.ReadU32(tm.addr(0)); got != 1 {
			t.Errorf("value = %d", got)
		}
	})
}

func TestMultiPhaseConvergence(t *testing.T) {
	// A two-node iterative computation: each phase, each node updates
	// its own element reading the other's pre-phase value.  The result
	// must match a sequential two-array execution exactly — this is the
	// C** semantics LCM exists to provide.
	tm := newLCMMachine(t, MCC, 2, 2, LooselyCoherent())
	a0, a1 := tm.addr(0), tm.addr(8) // elements in different blocks
	var got [2]uint32
	tm.m.Run(func(n *tempest.Node) {
		mine, theirs := a0, a1
		if n.ID == 1 {
			mine, theirs = theirs, mine
		}
		if n.ID == 0 {
			n.WriteU32(a0, 1)
			n.WriteU32(a1, 2)
		}
		n.ReconcileCopies()
		for it := 0; it < 5; it++ {
			v := n.ReadU32(mine) + n.ReadU32(theirs)
			n.WriteU32(mine, v)
			n.ReconcileCopies()
		}
		if n.ID == 0 {
			got[0] = n.ReadU32(a0)
			got[1] = n.ReadU32(a1)
		}
	})
	seq := [2]uint32{1, 2}
	for it := 0; it < 5; it++ {
		seq[0], seq[1] = seq[0]+seq[1], seq[1]+seq[0]
	}
	if got != seq {
		t.Fatalf("parallel result %v != sequential %v", got, seq)
	}
}

func TestValueEqualWritesDetectedInCheckedRegions(t *testing.T) {
	// Footnote 2 semantics: conflict detection works at store
	// granularity, so two processors storing the SAME value to one
	// element is still a violation in a checked region (but merges
	// silently in a plain loose region, where only value diffs matter).
	for _, tc := range []struct {
		pol       Policy
		conflicts int64
	}{
		{LooselyCoherent(), 0}, // diff-based: same value, no conflict
		{Detect(false), 1},     // store-based: flagged
	} {
		tm := newLCMMachine(t, MCC, 2, 4, tc.pol)
		tm.m.Run(func(n *tempest.Node) {
			n.WriteU32(tm.addr(0), 77) // both nodes write the same value
			n.ReconcileCopies()
			if got := n.ReadU32(tm.addr(0)); got != 77 {
				t.Errorf("merged value %d", got)
			}
		})
		if got := tm.m.Shared.WriteConflicts; got != tc.conflicts {
			t.Fatalf("policy %+v: conflicts = %d, want %d", tc.pol, got, tc.conflicts)
		}
	}
}

func TestUnchangedValueStoreDetected(t *testing.T) {
	// A store of the value already present is invisible to a diff but
	// must count as a modification in a checked region.
	tm := newLCMMachine(t, SCC, 2, 4, Detect(false))
	tm.m.AS.HomeBytes(tm.addr(0), 4)[0] = 5
	tm.m.Run(func(n *tempest.Node) {
		if n.ID == 0 {
			n.WriteU32(tm.addr(0), 5) // same as clean value
		} else {
			n.WriteU32(tm.addr(0), 6)
		}
		n.ReconcileCopies()
	})
	if got := tm.m.Shared.WriteConflicts; got != 1 {
		t.Fatalf("conflicts = %d, want 1 (store-granularity)", got)
	}
}
