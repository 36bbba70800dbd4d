package tempest

import (
	"testing"

	"lcm/internal/cost"
	"lcm/internal/fault"
	"lcm/internal/memsys"
)

// recoveryMachine is newTestMachine running plan with checkpoint/restart
// enabled.
func recoveryMachine(t *testing.T, p int, words uint64, plan fault.Plan) (*Machine, *memsys.Region) {
	t.Helper()
	m, r := newTestMachine(t, p, words)
	plan.Recover = true
	m.AttachFaults(plan)
	return m, r
}

// privateMachine is recoveryMachine over a loosely coherent region under
// privProtocol, block size bs: its lines are copies, where newTestMachine's
// are home lines.
func privateMachine(t *testing.T, p int, bs uint32, words uint64) (*Machine, *memsys.Region) {
	t.Helper()
	m := New(p, bs, cost.Uniform(1))
	r := m.AS.Alloc("data", words*4, memsys.KindLCM, memsys.Interleaved)
	m.SetProtocol(&privProtocol{})
	m.AttachFaults(fault.Plan{Recover: true})
	m.Freeze()
	return m, r
}

// TestCheckpointEveryBarrier: under a plan with Recover every node snapshots at
// every barrier — one checkpoint per barrier crossed, covering the lines
// the node had installed.
func TestCheckpointEveryBarrier(t *testing.T) {
	m, r := recoveryMachine(t, 2, 128, fault.Plan{})
	err := m.RunErr(func(n *Node) {
		touchAll(t, n, r, 128)
		n.Barrier()
		touchAll(t, n, r, 128)
		n.Barrier()
	})
	if err != nil {
		t.Fatalf("RunErr: %v", err)
	}
	for _, n := range m.Nodes {
		if n.Ctr.Checkpoints != n.Ctr.Barriers || n.Ctr.Barriers != 2 {
			t.Errorf("node %d: %d checkpoints over %d barriers, want one per barrier",
				n.ID, n.Ctr.Checkpoints, n.Ctr.Barriers)
		}
		if n.ckpt.lines == 0 {
			t.Errorf("node %d: last checkpoint is empty after touching every word", n.ID)
		}
	}
}

// TestKilledNodeRestarts: a plan with Recover turns injected kills into
// checkpoint restarts — the run completes, data verifies, and the restart
// accounting matches the kills injected.
func TestKilledNodeRestarts(t *testing.T) {
	m, r := recoveryMachine(t, 2, 128, fault.Plan{Seed: 3, KillNode: 1, KillAfter: 2, KillCount: 2})
	err := m.RunErr(func(n *Node) {
		touchAll(t, n, r, 128)
		n.Barrier()
		touchAll(t, n, r, 128)
		n.Barrier()
	})
	if err != nil {
		t.Fatalf("RunErr under a recovering plan: %v", err)
	}
	tally := m.Fault.Tally()
	if tally.Kills == 0 {
		t.Fatal("plan killed nothing; test proves nothing")
	}
	n1 := m.Nodes[1]
	if n1.Ctr.Restarts != tally.Kills {
		t.Errorf("node 1 restarts = %d, injected kills = %d", n1.Ctr.Restarts, tally.Kills)
	}
	if n1.Ctr.RecoveryCycles == 0 {
		t.Error("restarts charged no recovery cycles")
	}
	if m.Nodes[0].Ctr.Restarts != 0 {
		t.Errorf("node 0 restarted %d times without being killed", m.Nodes[0].Ctr.Restarts)
	}
	if n1.Degraded() {
		t.Error("node 1 went degraded within its restart budget")
	}
}

// TestKillAtBarrierRecovers: a crash at the barrier itself restarts from
// the previous epoch's checkpoint and the barrier still completes.
func TestKillAtBarrierRecovers(t *testing.T) {
	m, r := recoveryMachine(t, 2, 128, fault.Plan{Seed: 4, KillNode: 1, KillAtBarrier: 2})
	err := m.RunErr(func(n *Node) {
		for i := 0; i < 3; i++ {
			touchAll(t, n, r, 128)
			n.Barrier()
		}
	})
	if err != nil {
		t.Fatalf("RunErr: %v", err)
	}
	if got := m.Fault.Tally().Kills; got != 1 {
		t.Fatalf("kills = %d, want exactly one barrier kill", got)
	}
	if got := m.Nodes[1].Ctr.Restarts; got != 1 {
		t.Errorf("node 1 restarts = %d, want 1", got)
	}
}

// TestRehomePastBudget: killed more often than the restart budget allows,
// the node's home responsibility migrates to the live peer and the run
// still completes with intact data.
func TestRehomePastBudget(t *testing.T) {
	m, r := recoveryMachine(t, 2, 128, fault.Plan{
		Seed: 5, KillNode: 1, KillAfter: 2, KillCount: 4, RestartBudget: 2,
	})
	err := m.RunErr(func(n *Node) {
		touchAll(t, n, r, 128)
		n.Barrier()
		touchAll(t, n, r, 128)
		n.Barrier()
	})
	if err != nil {
		t.Fatalf("RunErr: %v", err)
	}
	n1 := m.Nodes[1]
	if !n1.Degraded() {
		t.Fatalf("node 1 killed %d times with budget 2 but never went degraded", m.Fault.Tally().Kills)
	}
	if n1.Ctr.Rehomings != 1 {
		t.Errorf("Rehomings = %d, want exactly 1 (re-homing is once per node)", n1.Ctr.Rehomings)
	}
	if n1.Ctr.RehomedBlocks == 0 {
		t.Error("re-homing migrated zero blocks")
	}
	// At P=2 a block not homed at node 1 is homed at the only live peer.
	first, nb := r.FirstBlock(), r.NumBlocks()
	for i := uint32(0); i < nb; i++ {
		b := first + memsys.BlockID(i)
		if m.AS.HomeOf(b) == 1 {
			t.Fatalf("block %d still homed at the degraded node", b)
		}
	}
}

// TestKillWithoutRecoverStillAborts: a kill under a plan without Recover
// aborts the machine — the historical abort path is preserved.
func TestKillWithoutRecoverStillAborts(t *testing.T) {
	m, r := newTestMachine(t, 2, 64)
	m.AttachFaults(fault.Plan{Seed: 6, KillNode: 1, KillAfter: 2})
	err := m.RunErr(func(n *Node) {
		touchAll(t, n, r, 64)
		n.Barrier()
	})
	if err == nil {
		t.Fatal("run succeeded despite an unrecoverable kill")
	}
}

// TestRestoredLinesCountTheLastBarrier: a restart restores — and is charged
// for — exactly the lines that were valid at the node's last barrier, home
// lines and copies alike, at the smallest and the largest block size.  Lines
// installed or revoked after the barrier do not move the count.
func TestRestoredLinesCountTheLastBarrier(t *testing.T) {
	for _, bs := range []uint32{8, 256} {
		m, r := privateMachine(t, 2, bs, 5*uint64(bs)/4) // five blocks
		valid := make([]int64, m.P)
		m.Run(func(n *Node) {
			for a := r.Base; a < r.Base+4*memsys.Addr(bs); a += memsys.Addr(bs) {
				n.ReadU32(a)
			}
			n.SetTag(m.AS.Block(r.Base), TagInvalid)
			for it := n.ValidLines(); ; valid[n.ID]++ {
				if _, _, ok := it.Next(); !ok {
					break
				}
			}
			n.Barrier()
			n.ReadU32(r.Base)                     // revalidated after the barrier
			n.ReadU32(r.Base + 4*memsys.Addr(bs)) // installed after the barrier
			n.SetTag(m.AS.Block(r.Base+memsys.Addr(bs)), TagInvalid)
			n.restartFromCheckpoint()
		})
		for _, n := range m.Nodes {
			if valid[n.ID] != 3 {
				t.Fatalf("bs %d node %d: %d valid lines before the barrier, want 3", bs, n.ID, valid[n.ID])
			}
			if n.Ctr.RestoredLines != valid[n.ID] {
				t.Errorf("bs %d node %d: restart restored %d lines, want the %d valid at the last barrier",
					bs, n.ID, n.Ctr.RestoredLines, valid[n.ID])
			}
		}
	}
}
