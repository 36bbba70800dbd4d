package tempest

import (
	"math/bits"

	"lcm/internal/fault"
)

// This file implements crash recovery: barrier-epoch checkpoints,
// restart-from-checkpoint for injected kills, and degraded-mode
// re-homing once a node's restart budget is spent.
//
// The checkpoint discipline is coordinated: every node checkpoints its
// protocol state at every global barrier, which in this machine is
// exactly where the memory consistency contract makes the state
// meaningful (LCM reconciles at barriers; between them copies are
// intentionally inconsistent).  Directory state and home images need no
// checkpoint: they live in the global simulator structures that survive a
// node crash (it models state kept in the survivors' memories and the
// home's directory).
//
// Restart is checkpoint-plus-deterministic-replay.  The simulator
// cannot rewind an SPMD body mid-flight, and it does not need to: the
// machine is deterministic under the scheduler, so re-executing the
// epoch's access stream from the checkpoint reproduces, bit for bit, the
// state the node held at the crash point.  The live path therefore charges
// the restart (fixed base + per-line restore + per-operation replay) and
// continues from state that is identical to the replay's outcome by
// construction.  So a checkpoint keeps only what those charges read: how
// many valid lines the node held — home lines included, whose data is
// memory's — and where the epoch's operations began.  What the system
// claims of a restart is the recovery matrix's answer identity against a
// fault-free run (harness's recovery.golden).

// checkpoint is one node's barrier-epoch checkpoint.
type checkpoint struct {
	// lines is the number of valid lines at capture.
	lines int64
	// opsMark is Hits+Misses at capture: the origin for replay
	// accounting when a restart replays the epoch.
	opsMark int64
}

// takeCheckpoint checkpoints n, charging CheckpointPerLine per valid line.
// Called by Node.Barrier.
func (n *Node) takeCheckpoint() {
	lines := n.validLines()
	n.ckpt = checkpoint{lines: lines, opsMark: n.Ctr.Hits + n.Ctr.Misses}
	n.clock += lines * n.M.Cost.CheckpointPerLine
	n.Ctr.Checkpoints++
}

// validLines counts the node's lines whose tag is not TagInvalid, eight
// access bytes at a time: a valid byte has bit 7 or bit 6 set.
func (n *Node) validLines() int64 {
	t := n.tags
	c := 0
	for ; len(t) >= 8; t = t[8:] {
		w := load64(t)
		c += bits.OnesCount64((w | w<<1) & 0x8080808080808080)
	}
	for _, x := range t {
		if x >= loadOK {
			c++
		}
	}
	return int64(c)
}

// restartFromCheckpoint models node n crashing and restarting from its
// last barrier-epoch checkpoint, charging restore and replay in virtual
// cycles.  See the file comment for why the live path does not (and
// need not) literally rewind state.
func (n *Node) restartFromCheckpoint() {
	c := &n.M.Cost
	lines := n.ckpt.lines
	ops := n.Ctr.Hits + n.Ctr.Misses - n.ckpt.opsMark
	charge := c.RestartBase + lines*c.RestorePerLine + ops*c.ReplayPerOp
	n.clock += charge
	n.Ctr.Restarts++
	n.Ctr.RestoredLines += lines
	n.Ctr.ReplayedOps += ops
	n.Ctr.RecoveryCycles += charge
}

// Degraded reports whether the node's home responsibility has migrated
// to a peer (degraded mode).
func (n *Node) Degraded() bool { return n.degraded }

// killed handles an injected kill of node n triggered after `after`
// events: a machine-wide abort by default; under a plan with Recover, a
// checkpoint restart — and, once the node has been killed past its restart
// budget, degraded-mode re-homing.  Runs in the dying node's coroutine.
func (n *Node) killed(f *fault.Injector, after int) {
	if !f.Plan().Recover {
		panic(&fault.KillError{Node: n.ID, After: after})
	}
	n.restartFromCheckpoint()
	if int(n.Ctr.Restarts) > f.RestartBudget() {
		n.M.rehomeNode(n)
	}
}

// Rehomer is implemented by protocols that keep per-home aggregate state
// which must migrate when a home's responsibility moves in degraded
// mode.  LCM implements it to hand the dead home's dirty-block list to
// the adopter; Stache's directory is purely per-block and needs no hook.
type Rehomer interface {
	Rehome(from, to int)
}

// rehomeNode declares node n dead for homing purposes: every block it
// homes migrates to the next live peer, the protocol migrates its
// per-home state, and n continues as a pure compute client (the run
// completes with P−1 serving nodes).  The home images need no copy in
// the simulator — they live in the global address space — which models
// the adopter taking over the dead node's memory pages; what is charged
// is the directory/image handover, one block-sized transfer per
// migrated block through the network model.
func (m *Machine) rehomeNode(n *Node) {
	if m.P < 2 || n.degraded {
		return
	}
	to := -1
	for i := 1; i < m.P; i++ {
		cand := (n.ID + i) % m.P
		if !m.Nodes[cand].degraded {
			to = cand
			break
		}
	}
	if to < 0 {
		return // no live peer left to adopt the regions
	}
	n.degraded = true
	moved := m.AS.Rehome(n.ID, to)
	var cyc int64
	for i := int64(0); i < moved; i++ {
		cyc += m.Net.Flush(n.ID, to, int64(m.AS.BlockSize), n.Clock()+cyc, &n.Ctr.Net)
	}
	n.clock += cyc
	if r, ok := m.protocol.(Rehomer); ok {
		r.Rehome(n.ID, to)
	}
	n.Ctr.Rehomings++
	n.Ctr.RehomedBlocks += moved
}
