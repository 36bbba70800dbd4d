package tempest

import (
	"testing"
	"unsafe"

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
// privProtocol, block size bs: its lines are buffers of their own, which a
// checkpoint holds images of, where newTestMachine's are home lines.
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
		if n.CheckpointLines() == 0 {
			t.Errorf("node %d: last checkpoint is empty after touching every word", n.ID)
		}
	}
}

// TestRestoreCheckpoint proves the snapshot holds real state: mutate every
// checkpointed private line after the barrier, install a brand-new line,
// restore, and the machine must be back to its barrier image byte for byte
// with the late line invalidated.
func TestRestoreCheckpoint(t *testing.T) {
	m, r := privateMachine(t, 1, 32, 64)
	half := memsys.Addr(32 * 4) // second half stays untouched until after the barrier
	err := m.RunErr(func(n *Node) {
		for w := uint64(0); w < 32; w++ {
			n.WriteU32(r.Base+memsys.Addr(w*4), uint32(w)+1000)
		}
		n.Barrier() // checkpoint captures the first-half lines
		snapLines := n.CheckpointLines()
		for w := uint64(0); w < 32; w++ {
			n.WriteU32(r.Base+memsys.Addr(w*4), 0xdeadbeef)
		}
		n.WriteU32(r.Base+half, 7) // installs a line the checkpoint never saw

		n.RestoreCheckpoint()

		if got := n.CheckpointLines(); got != snapLines {
			t.Errorf("restore changed the checkpoint itself: %d lines, had %d", got, snapLines)
		}
		for w := uint64(0); w < 32; w++ {
			if got, want := n.ReadU32(r.Base+memsys.Addr(w*4)), uint32(w)+1000; got != want {
				t.Fatalf("word %d after restore = %#x, want the barrier image %#x", w, got, want)
			}
		}
		lateBlock := m.AS.Block(r.Base + half)
		if l := n.Line(lateBlock); l != nil && l.Tag() != TagInvalid {
			t.Errorf("line installed after the checkpoint survived the restore (tag %v)", l.Tag())
		}
	})
	if err != nil {
		t.Fatalf("RunErr: %v", err)
	}
}

// TestRestoreCheckpointHomeLine pins what a home line restores: its tag and
// bookkeeping, not data.  Its data is the home image, so a store another node
// made after the checkpoint stays in memory, and the line is still the home
// image afterwards; a line installed after the checkpoint is invalidated as
// for any other.
func TestRestoreCheckpointHomeLine(t *testing.T) {
	m, r := recoveryMachine(t, 2, 64, fault.Plan{})
	b := m.AS.Block(r.Base)
	late := r.Base + 32*4
	err := m.RunErr(func(n *Node) {
		if n.ID == 0 {
			for w := uint32(0); w < 8; w++ {
				n.WriteU32(r.Base+memsys.Addr(w*4), w+1000)
			}
		}
		n.Barrier() // node 0's checkpoint holds block b read-write
		if n.ID == 1 {
			n.WriteU32(r.Base, 42)
			return
		}
		n.Line(b).SetTag(TagReadOnly)
		n.ReadU32(late)
	})
	if err != nil {
		t.Fatalf("RunErr: %v", err)
	}
	n := m.Nodes[0]
	n.RestoreCheckpoint()
	home := m.AS.HomeData(b)
	l := n.Line(b)
	if l.Tag() != TagReadWrite {
		t.Errorf("home line restored to tag %s, want the checkpoint's rw", TagName(l.Tag()))
	}
	if &l.Data[0] != &home[0] {
		t.Errorf("restore gave the home line a buffer of its own")
	}
	for w := uint32(0); w < 8; w++ {
		want := w + 1000
		if w == 0 {
			want = 42 // node 1's store after the checkpoint: memory's, not node 0's
		}
		if got := *memsys.At[uint32](home, w*4); got != want {
			t.Errorf("home word %d after restore = %d, want %d", w, got, want)
		}
	}
	if l := n.Line(m.AS.Block(late)); l == nil || l.Tag() != TagInvalid {
		t.Errorf("line installed after the checkpoint survived the restore")
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
	first, nb := r.FirstBlock(), r.NumBlocks()
	for i := uint32(0); i < nb; i++ {
		b := first + memsys.BlockID(i)
		if m.AS.HomeOf(b) == 1 {
			t.Fatalf("block %d still homed at the degraded node", b)
		}
		if m.AS.BaseHomeOf(b) == 1 && m.AS.HomeOf(b) != 0 {
			t.Fatalf("block %d migrated to %d, want the only live peer 0", b, m.AS.HomeOf(b))
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

// TestCheckpointImagesAligned: checkpoint images hold block data like any
// other buffer (memsys/view.go's alignment rule), so at the smallest and the
// largest block size every data and clean image of a checkpoint starts on an
// 8-byte boundary.  (The buffers reachable from outside the package are
// walked by memsys's TestBlockBuffersAligned.)
func TestCheckpointImagesAligned(t *testing.T) {
	for _, bs := range []uint32{8, 256} {
		m, r := privateMachine(t, 2, bs, 5*uint64(bs)/4)
		m.Run(func(n *Node) {
			for a := r.Base; a < r.End(); a += memsys.Addr(bs) {
				n.ReadU32(a)
				n.Line(m.AS.Block(a)).Clean = n.BlockBuf() // as LCM-mcc keeps one
			}
			n.Barrier()
		})
		for _, n := range m.Nodes {
			if len(n.ckpt.lines) != 5 {
				t.Fatalf("bs %d node %d: checkpoint holds %d lines, want 5", bs, n.ID, len(n.ckpt.lines))
			}
			for _, s := range n.ckpt.lines {
				for _, img := range [][]byte{s.data, s.clean} {
					if p := uintptr(unsafe.Pointer(unsafe.SliceData(img))); img == nil || p%8 != 0 {
						t.Errorf("bs %d node %d block %d: checkpoint image at %#x is not 8-byte aligned", bs, n.ID, s.block, p)
					}
				}
			}
		}
	}
}
