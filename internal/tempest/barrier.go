package tempest

import (
	"errors"

	"lcm/internal/sched"
)

// Barrier is a reusable barrier over a run's scheduler that also computes
// the maximum virtual clock of the arriving nodes; WaitNode returns that
// maximum, which each node adopts as its post-barrier clock.  Arrivers hand
// the token on and park in the scheduler's Block; the last one readies them
// all at the resolved time.
//
// A barrier can be aborted: Abort poisons the scheduler, which makes every
// node parked anywhere — here, in a handler's yield, on a simulated lock —
// unwind with the same distinguished error, and every later wait fail fast
// with it, so the death of one participant cannot strand its siblings
// forever.  Once aborted, a barrier stays poisoned; build a fresh machine
// to run again.  Only the token holder touches a barrier, so nothing in it
// is locked.
type Barrier struct {
	n       int
	arrived int
	max     int64
	result  int64

	// err, once set, poisons the barrier: all waits return it.
	err error

	// foldClocks, when non-nil (machine barriers), is called at the instant
	// the last participant arrives; it folds every node's stolen handler
	// cycles and returns the resulting clock maximum.
	foldClocks func() int64

	// sched is the current run's scheduler.
	sched *sched.Scheduler
}

// NewBarrier creates a barrier for n participants.
func NewBarrier(n int) *Barrier { return &Barrier{n: n} }

// ErrAborted is the sentinel every post-abort wait returns (match with
// errors.Is); the concrete error also carries the abort's cause.
var ErrAborted = errors.New("tempest: barrier aborted")

// abortedError wraps the cause a barrier was aborted with.
type abortedError struct{ cause error }

func (e *abortedError) Error() string   { return "tempest: barrier aborted: " + e.cause.Error() }
func (e *abortedError) Unwrap() error   { return e.cause }
func (e *abortedError) Is(t error) bool { return t == ErrAborted }

// arm attaches a run's scheduler.
func (b *Barrier) arm(s *sched.Scheduler) { b.sched = s }

// WaitNode blocks node, the token holder, until all n participants have
// arrived, then returns the maximum clock value passed by any participant
// in this round.  On abort it returns the abort error (errors.Is
// ErrAborted) and the clock the caller passed in.
func (b *Barrier) WaitNode(node int, clock int64) (int64, error) {
	if b.err != nil {
		return clock, b.err
	}
	if clock > b.max {
		b.max = clock
	}
	b.arrived++
	s := b.sched
	s.NoteBarrier() // the running segment crosses a barrier
	if b.arrived < b.n {
		// Hand the token on and park until the last arriver has readied
		// this node and the run queue grants it.
		if !s.Block(node) {
			return clock, b.poisonErr()
		}
		// The next round cannot resolve before this node arrives at it.
		return b.result, nil
	}
	// Last arriver: every participant is parked, so fold the stolen handler
	// cycles (see foldClocks) and resolve the round at the true clock
	// maximum.
	if b.foldClocks != nil {
		if f := b.foldClocks(); f > b.max {
			b.max = f
		}
	}
	res := b.max
	b.result = res
	// The last arriver — the only running node — readies its parked
	// siblings itself, so wakeup order never depends on the host (invariant
	// 1 in sched's docs).  All resume at the barrier's resolved time; ties
	// break by node.
	for i := 0; i < b.n; i++ {
		if i != node {
			s.SetReadyAt(i, res)
		}
	}
	b.max = 0
	b.arrived = 0
	// Re-enter the run queue alongside the siblings just readied.
	if !s.Yield(node, res) {
		return clock, b.poisonErr()
	}
	return res, nil
}

// Abort poisons the barrier with cause: every parked node unwinds and
// every future wait fails fast with an error matching ErrAborted.  The
// first abort wins; later calls are no-ops.
func (b *Barrier) Abort(cause error) {
	if b.err != nil {
		return
	}
	if errors.Is(cause, ErrAborted) {
		b.err = cause
	} else {
		b.err = &abortedError{cause: cause}
	}
	// The error is in place before the poison, so a node that is unwound
	// from a poisoned scheduler finds it.
	b.sched.Poison()
}

// Err returns the abort error, or nil while the barrier is healthy.
func (b *Barrier) Err() error { return b.err }

// poisonErr is what a scheduling call that found the run poisoned fails
// with: the abort error, which Abort stores before it poisons — or a
// stand-in when the scheduler poisoned itself over a failed posted effect
// and the poster has yet to abort on its behalf.
func (b *Barrier) poisonErr() error {
	if err := b.Err(); err != nil {
		return err
	}
	return &abortedError{cause: errors.New("a sibling's posted effect failed")}
}
