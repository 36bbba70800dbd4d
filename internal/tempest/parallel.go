package tempest

import (
	"lcm/internal/memsys"
	"lcm/internal/sched"
)

// This file is the machine side of time-parallel execution (see
// internal/sched/parallel.go for the scheduler side).  parWorkers decides
// whether a run may engage the parallel admitter at all; admitOK supplies
// the footprint checks the scheduler cannot make itself, because they
// involve protocol state — block homes and cached-copy tags.

// parWorkers returns the worker count for the next run, or 1 when the run
// must stay serial.  Parallel admission is only sound when every source
// of scheduling-relevant nondeterminism is off:
//
//   - SchedHook installs checker choosers/observers that assume one
//     quiescent decision point per grant;
//   - fault injection and delivery loss restructure charges mid-segment
//     (timeouts, retransmissions), so no latency floor holds;
//   - recovery replays the schedule and must observe it serially;
//   - a network model with no positive MinLatency (zero-cost model, or
//     the retransmission layer) yields a zero lookahead window — the
//     admitter could never admit past a running fault anyway;
//   - a network model that is not OrderFree (the fat tree) charges a
//     message by what its channels carried before it, and concurrent
//     segments send in host order.  (A gate that released their sends in
//     grant order used to stand here; one Threshold cell drifted from
//     the serial schedule under it, and the serial token cannot.)
//
// DetSched is checked by the caller (serial free-running runs have no
// scheduler at all).
func (m *Machine) parWorkers() int {
	par := m.Par
	if par > m.P {
		par = m.P
	}
	if par <= 1 {
		return 1
	}
	if m.SchedHook != nil || m.Fault != nil || m.Loss != nil || m.Recovery {
		return 1
	}
	if m.Net.MinLatency() <= 0 || !m.Net.OrderFree() {
		return 1
	}
	return par
}

// admitOK vetoes a fault-intent candidate that could interact with a
// running frontier member through protocol state, in both directions:
//
//   - the member is the home of the candidate's fault block (the handler
//     mutates the home's directory entry and charges it occupancy), or
//     vice versa;
//   - the member holds a valid cached copy of the candidate's fault
//     block (the handler may invalidate or recall it, writing the
//     member's line while it runs), or vice versa.
//
// The scheduler has already rejected two members faulting the same
// block, so the line checks below never race the one line slot a running
// handler may write: a handler only writes its own node's slot for its
// own declared block, and block distinctness excludes exactly that slot.
// Tag reads are atomic; a stale read is conservative in the only
// direction that matters — a member's copy of the candidate's block can
// only appear valid when it is not (recently invalidated), never the
// reverse, because no running segment can create a copy of a block it
// did not declare.
//
// Called with the scheduler lock held; reads only atomic tags and
// immutable homes, calls nothing back.
//
// The veto deliberately consults per-node line tables rather than the
// directory copysets (nodeset.Set): it is O(frontier members), so it is
// width-independent — the same code admits at P=8 and at P=1024 — and
// it never takes the block locks that guard the copysets.
func (m *Machine) admitOK(c sched.Candidate, it sched.Intent, peers []sched.Peer) bool {
	cFault := it.Kind == sched.IntentFault
	var cb memsys.BlockID
	if cFault {
		cb = memsys.BlockID(it.Block)
	}
	for _, p := range peers {
		if cFault {
			if p.Node == it.Home {
				return false
			}
			if l := m.Nodes[p.Node].lines[cb]; l != nil && l.Tag() >= TagReadOnly {
				return false
			}
		}
		if p.It.Kind == sched.IntentFault {
			if c.Node == p.It.Home {
				return false
			}
			pb := memsys.BlockID(p.It.Block)
			if l := m.Nodes[c.Node].lines[pb]; l != nil && l.Tag() >= TagReadOnly {
				return false
			}
		}
	}
	return true
}
