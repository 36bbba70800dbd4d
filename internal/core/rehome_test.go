package core

import (
	"reflect"
	"testing"

	"lcm/internal/cost"
	"lcm/internal/fault"
	"lcm/internal/memsys"
	"lcm/internal/tempest"
)

// rehomeRun is one run of the degraded-mode program below: what it left
// behind, the lengths of the dead node's and the adopter's dirty lists at
// the access that re-homed the dead node ({0, 0} if none did), and the
// adopter's list right after it.
type rehomeRun struct {
	outcome
	atRehome [2]int
	merged   []memsys.BlockID
}

// runRehomeProgram runs a four-node program over a conflict-checked region
// whose blocks are homed round-robin, so block b lives at node b%4.  With
// kill set, node 3 is killed past its restart budget half-way through the
// first phase and node 0 adopts its blocks.
//
// Nodes 0-2 run far apart in virtual time and node 3 long after them, so
// the order of every handler — and with it the order in which write-write
// conflicts are detected — does not depend on what recovery charges node 3.
// By the time node 3 dies the others have registered blocks 3, 7, 11 with
// it and 4, 8, 12 with node 0, in the order 3, 4, 7, 8, 12, 11.
func runRehomeProgram(t *testing.T, v Variant, kill bool) rehomeRun {
	t.Helper()
	const dead, adopter = 3, 0
	m := tempest.New(4, 32, cost.Default())
	r := alloc(t, m, "chk", 16, Detect(true), memsys.Interleaved)
	lcm := New(v)
	m.SetProtocol(lcm)
	m.Freeze()
	if kill {
		// Node 3 dies on its 2nd and 4th access fault; the budget covers one.
		m.AttachFaults(fault.Plan{Seed: 9, KillNode: dead, KillAfter: 2, KillCount: 2, Recover: true, RestartBudget: 1})
	}
	var run rehomeRun
	w := func(blk, i int) memsys.Addr { return word(r, blk*8+i) }
	err := m.RunErr(func(n *tempest.Node) {
		for phase := 0; phase < 2; phase++ {
			if n.ID == dead {
				n.Compute(5_000_000)
				for _, blk := range []int{1, 2, 5, 6, 9, 10} { // six read faults
					before := [2]int{len(lcm.dirty[dead]), len(lcm.dirty[adopter])}
					was := n.Degraded()
					_ = n.ReadU32(w(blk, 0))
					if !was && n.Degraded() {
						run.atRehome = before
						run.merged = append(run.merged, lcm.dirty[adopter]...)
					}
				}
				n.WriteU32(w(3, 0), 33) // collides with nodes 0-2, at the old home
				n.WriteU32(w(4, 0), 34) // and at the adopter's
			} else {
				n.Compute(int64(200_000 * (n.ID + 1)))
				for _, blk := range []int{3, 4, 7, 8} {
					n.WriteU32(w(blk, 0), uint32(100*phase+10*n.ID+blk)) // write-write, both homes
					n.WriteU32(w(blk, 1+n.ID), uint32(n.ID+1))           // no conflict
				}
				// A read-write pair at each home.  The adopter's block is
				// registered first, so one home committing the merged list
				// logs the pair in the order two homes would: node 0's
				// block, then node 3's.
				switch n.ID {
				case 1:
					n.WriteU32(w(12, 0), uint32(phase+1))
					n.WriteU32(w(11, 0), uint32(phase+2))
				case 2:
					_ = n.ReadU32(w(12, 1))
					_ = n.ReadU32(w(11, 1))
				}
			}
			n.ReconcileCopies()
		}
	})
	if err != nil {
		t.Fatalf("%s kill=%v: %v", v, kill, err)
	}
	if got := m.Nodes[dead].Degraded(); got != kill {
		t.Fatalf("%s kill=%v: node %d degraded = %v", v, kill, dead, got)
	}
	run.outcome = outcome{Shared: m.Shared, Steps: m.Sched().Steps()}
	for _, nd := range m.Nodes {
		run.Clocks = append(run.Clocks, nd.Clock())
		run.Counters = append(run.Counters, nd.Ctr)
	}
	for _, c := range lcm.Conflicts() {
		run.Conflicts = append(run.Conflicts, c.String())
	}
	for b := memsys.BlockID(0); uint32(b) < m.AS.NumBlocks(); b++ {
		run.Memory = append(run.Memory, m.AS.HomeData(b)...)
	}
	return run
}

// TestRehomeMergesTwoNonEmptyDirtyLists: a node dies mid-phase while both
// its own dirty list and its adopter's hold registrations.  The adopter
// must commit all of them: the home image, the number of reconciled blocks
// and the conflict log — order included — equal the fault-free run's, and
// the degraded run replays bit-identically.
func TestRehomeMergesTwoNonEmptyDirtyLists(t *testing.T) {
	for _, v := range []Variant{SCC, MCC} {
		oracle := runRehomeProgram(t, v, false)
		first := runRehomeProgram(t, v, true)
		second := runRehomeProgram(t, v, true)
		if first.atRehome[0] < 2 || first.atRehome[1] < 2 {
			t.Fatalf("%s: dirty lists held %v blocks at the re-homing; the case needs both non-empty", v, first.atRehome)
		}
		// One list in registration order, as if node 0 had been the home
		// of all six blocks: what keeps the order of its invalidations, and
		// so a fat tree's queueing, that of the schedule.
		if want := []memsys.BlockID{3, 4, 7, 8, 12, 11}; !reflect.DeepEqual(first.merged, want) {
			t.Errorf("%s: adopter's dirty list after the re-homing is %v, want %v", v, first.merged, want)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%s: degraded run does not replay:\n first  %+v\n second %+v", v, first, second)
		}
		if len(oracle.Conflicts) < 6 || oracle.Shared.ReadWriteConflicts < 2 {
			t.Fatalf("%s: fault-free run logged %d conflicts, %d read-write; the case needs both kinds at both homes",
				v, len(oracle.Conflicts), oracle.Shared.ReadWriteConflicts)
		}
		if !reflect.DeepEqual(first.Memory, oracle.Memory) {
			t.Errorf("%s: home image differs from the fault-free run's", v)
		}
		if first.Shared.Reconciles != oracle.Shared.Reconciles {
			t.Errorf("%s: %d blocks reconciled, fault-free run reconciled %d", v, first.Shared.Reconciles, oracle.Shared.Reconciles)
		}
		if !reflect.DeepEqual(first.Conflicts, oracle.Conflicts) {
			t.Errorf("%s: conflict log differs from the fault-free run's:\n degraded   %v\n fault-free %v", v, first.Conflicts, oracle.Conflicts)
		}
	}
}
