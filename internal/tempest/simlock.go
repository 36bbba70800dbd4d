package tempest

// SimLock is a simulated inter-node lock.  It models the lock's
// virtual-time behaviour: acquisition costs a remote round trip and the
// holder's critical sections serialize, so virtual time exposes the
// bottleneck a contended lock creates — exactly the effect Section 7.1
// contrasts with RSM reductions.
//
// Mutual exclusion is carried by the scheduler token, not by a host lock:
// the holder may reach scheduling points (access faults) inside the
// critical section, so contenders block in the run queue and the releaser
// readies them itself.  Acquisition order is therefore a function of
// virtual time.
type SimLock struct {
	lastRelease int64
	held        bool
	waiters     []int
}

// Acquire takes the lock.  The caller's clock advances past the previous
// holder's release time (serialization) plus the lock-transfer round trip.
// If the run is aborted while the caller waits, it unwinds without entering
// the critical section.
func (lk *SimLock) Acquire(n *Node) {
	// Contend in virtual time: the run queue decides who attempts the
	// lock next, and losers park until the releaser readies them.
	n.SchedYield()
	for s := n.M.schedder; lk.held; {
		lk.waiters = append(lk.waiters, n.ID)
		if !s.Block(n.ID) {
			n.abandon()
		}
	}
	lk.held = true
	n.FoldStolen()
	if lk.lastRelease > n.Clock() {
		n.Charge(lk.lastRelease - n.Clock())
	}
	n.Charge(n.M.Cost.RemoteRoundTrip)
}

// Release releases the lock, recording the holder's clock as the earliest
// time the next holder can enter.
func (lk *SimLock) Release(n *Node) {
	n.drain() // an exact clock, and SetReady below is a real scheduling call
	lk.lastRelease = n.Clock()
	lk.held = false
	// Ready every waiter; the run queue grants them in virtual-time
	// order and each re-checks held, so the hand-off is deterministic.
	for _, id := range lk.waiters {
		n.M.schedder.SetReady(id)
	}
	lk.waiters = lk.waiters[:0]
}
