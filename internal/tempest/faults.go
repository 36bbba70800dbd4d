package tempest

import (
	"lcm/internal/fault"
	"lcm/internal/memsys"
)

// This file wires the fault injector into the Tempest data-movement
// boundary.  Three injection points cover the substrate failures the
// paper's real CM-5 hardware could exhibit:
//
//   - block-transfer corruption, detected by a per-transfer checksum and
//     healed by bounded re-fetch with exponential backoff (deliverBlock);
//   - transient remote-access failure: a fault-handler round trip times
//     out and is re-sent up to a budget (preFault);
//   - handler occupancy spikes and node stalls that stress the cost
//     model without touching data (preFault).
//
// All recovery is charged in virtual cycles and recorded in the node's
// counters; injected faults never change program-visible data, so a run
// under any recoverable plan is bit-identical to the fault-free run.
// Exhausting a retry budget — or the plan's explicit kill — panics with a
// structured error that RunErr recovers into a per-node failure.

// AttachFaults attaches a deterministic fault injector executing plan.
// Call before Run; pass the zero Plan to model a perfect interconnect
// with checksums still verified.
func (m *Machine) AttachFaults(plan fault.Plan) *fault.Injector {
	m.Fault = fault.NewInjector(m.P, plan)
	m.Net.SetFaults(m.Fault, m.P)
	return m.Fault
}

// preFault runs the injector's pre-dispatch faults for an access fault on
// block b.  It executes in the faulting node's goroutine before the
// protocol handler, exactly where Blizzard's trap entry ran.
func (n *Node) preFault(b memsys.BlockID) {
	f := n.M.Fault
	if f == nil {
		return
	}
	if f.AccessFault(n.ID) {
		n.killed(f, f.Plan().KillAfter)
	}
	if cyc, ok := f.Stall(n.ID); ok {
		n.clock += cyc
		n.Ctr.Stalls++
		n.Ctr.StallCycles += cyc
	}
	if n.M.AS.HomeOf(b) == n.ID {
		return // local fill: no messages to lose or spike
	}
	// Transient failure: the request round trip is lost, the requester
	// times out (one full round trip of virtual time) and re-sends after
	// exponential backoff, up to the retry budget.
	for attempt := 1; f.TransientTimeout(n.ID); attempt++ {
		if attempt > f.RetryBudget() {
			panic(&fault.RetryExhaustedError{
				Node: n.ID, Op: "remote request", Block: uint32(b), Attempts: attempt,
			})
		}
		backoff := f.Backoff(attempt)
		n.clock += n.M.Net.Timeout(n.ID, n.M.AS.HomeOf(b), n.Clock(), &n.Ctr.Net) + backoff
		n.Ctr.TransientTimeouts++
		n.Ctr.FaultRetries++
		n.Ctr.BackoffCycles += backoff
	}
	if cyc, ok := f.OccupancySpike(n.ID); ok {
		n.M.Nodes[n.M.AS.HomeOf(b)].ChargeRemote(cyc)
		n.Ctr.OccupancySpikes++
	}
}

// deliverBlock models the arrival of a block transfer into line l.  The
// sender's per-transfer checksum is verified against the received data; a
// mismatch triggers a bounded re-fetch with exponential backoff, charged
// in virtual cycles.  Runs in the receiving node's goroutine with src
// stable (no scheduling point lies inside), so the re-fetch can simply
// re-copy the true data.  A home line's data is the home image, which a
// transfer must not corrupt: its block arrives in the node's wire buffer.
func (n *Node) deliverBlock(f *fault.Injector, b memsys.BlockID, l *Line, src []byte) {
	got := l.Data
	if l.home {
		if n.wire == nil {
			n.wire = n.BlockBuf()
		}
		got = n.wire
		copy(got, src)
	}
	sum := fault.Checksum(src)
	remote := n.M.AS.HomeOf(b) != n.ID
	for attempt := 1; ; attempt++ {
		if f.CorruptTransfer(n.ID) {
			f.CorruptBytes(n.ID, got)
		}
		if fault.Checksum(got) == sum {
			return // transfer verified intact
		}
		n.Ctr.CorruptedTransfers++
		if attempt > f.RetryBudget() {
			panic(&fault.RetryExhaustedError{
				Node: n.ID, Op: "block transfer", Block: uint32(b), Attempts: attempt,
			})
		}
		backoff := f.Backoff(attempt)
		n.Ctr.FaultRetries++
		n.Ctr.BackoffCycles += backoff
		if remote {
			n.clock += n.M.Net.RoundTrip(n.ID, n.M.AS.HomeOf(b), int64(n.M.AS.BlockSize), n.Clock(), &n.Ctr.Net) + backoff
		} else {
			n.clock += n.M.Cost.LocalFill + backoff
		}
		copy(got, src)
	}
}
