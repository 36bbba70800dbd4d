package tempest

import "sync"

// SimLock is a simulated inter-node lock.  It provides real mutual
// exclusion for the simulator (so critical-section data movement is
// race-free under the Go memory model) and models the lock's virtual-time
// behaviour: acquisition costs a remote round trip and the holder's
// critical sections serialize, so virtual time exposes the bottleneck a
// contended lock creates — exactly the effect Section 7.1 contrasts with
// RSM reductions.
//
// Under the deterministic scheduler (Machine.DetSched) mutual exclusion is
// carried by the cooperative token instead of by holding mu across the
// critical section — the holder may reach scheduling points (access
// faults) inside the critical section, and parking the token under a host
// mutex would wedge the run queue.  Contenders block in the run queue and
// the releaser readies them itself, so acquisition order is a function of
// virtual time, not host mutex arbitration.
type SimLock struct {
	mu          sync.Mutex
	lastRelease int64

	// held and waiters are used only in deterministic-scheduler mode,
	// guarded by mu (which is then only ever held briefly, never across a
	// scheduling point).
	held    bool
	waiters []int
}

// Acquire takes the lock.  The caller's clock advances past the previous
// holder's release time (serialization) plus the lock-transfer round trip.
func (lk *SimLock) Acquire(n *Node) {
	if s := n.M.schedder; s != nil {
		// Contend in virtual time: the run queue decides who attempts the
		// lock next, and losers park until the releaser readies them.
		n.SchedYield()
		lk.mu.Lock()
		for lk.held {
			if s.Poisoned() {
				// The run is dying (abort/stall); the holder may never
				// release.  Proceed so the unwinding node reaches its
				// barrier abort instead of spinning.
				break
			}
			lk.waiters = append(lk.waiters, n.ID)
			lk.mu.Unlock()
			s.Block(n.ID)
			s.AwaitGrant(n.ID)
			lk.mu.Lock()
		}
		lk.held = true
		lk.mu.Unlock()
	} else {
		lk.mu.Lock()
	}
	n.FoldStolen()
	if lk.lastRelease > n.Clock() {
		n.Charge(lk.lastRelease - n.Clock())
	}
	n.Charge(n.M.Cost.RemoteRoundTrip)
}

// Release releases the lock, recording the holder's clock as the earliest
// time the next holder can enter.
func (lk *SimLock) Release(n *Node) {
	if s := n.M.schedder; s != nil {
		n.drain() // an exact clock, and SetReady below is a real scheduling call
		lk.mu.Lock()
		lk.lastRelease = n.Clock()
		lk.held = false
		ws := lk.waiters
		lk.waiters = nil
		lk.mu.Unlock()
		// Ready every waiter; the run queue grants them in virtual-time
		// order and each re-checks held, so the hand-off is deterministic.
		for _, id := range ws {
			s.SetReady(id)
		}
		return
	}
	lk.lastRelease = n.Clock()
	lk.mu.Unlock()
}
