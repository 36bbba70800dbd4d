package tempest

import (
	"errors"
	"fmt"
	"sync"
	"time"

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
// forever.  An optional wall-clock watchdog (Machine.Watchdog) aborts a round
// that stalls — the token holder never reached a scheduling point in time —
// after collecting per-node diagnostics; this turns a silent hang into a
// structured, bounded failure.  Once aborted, a barrier stays poisoned;
// build a fresh machine to run again.
type Barrier struct {
	// mu guards everything below against the watchdog's timer, which aborts
	// from outside the token, and against the parked nodes of a stalled run,
	// which RunErr unwinds — they call Abort and Err — on its own goroutine
	// while the token holder may still be running.
	mu      sync.Mutex
	n       int
	arrived int
	gen     uint64
	max     int64
	result  int64

	// present[i] records that node i is parked in the current round,
	// for the watchdog's diagnostics.
	present []bool

	// err, once set, poisons the barrier: all waits return it.
	err error

	// foldClocks, when non-nil (machine barriers), is called at the instant
	// the last participant arrives; it folds every node's stolen handler
	// cycles and returns the resulting clock maximum.
	foldClocks func() int64

	// sched is the current run's scheduler.
	sched *sched.Scheduler

	watchdog time.Duration
	onStall  func(present []bool) string
	timer    *time.Timer
}

// NewBarrier creates a barrier for n participants.
func NewBarrier(n int) *Barrier {
	return &Barrier{n: n, present: make([]bool, n)}
}

// ErrAborted is the sentinel every post-abort wait returns (match with
// errors.Is); the concrete error also carries the abort's cause.
var ErrAborted = errors.New("tempest: barrier aborted")

// abortedError wraps the cause a barrier was aborted with.
type abortedError struct{ cause error }

func (e *abortedError) Error() string   { return "tempest: barrier aborted: " + e.cause.Error() }
func (e *abortedError) Unwrap() error   { return e.cause }
func (e *abortedError) Is(t error) bool { return t == ErrAborted }

// ErrStalled is the sentinel for a watchdog-detected barrier stall (match
// with errors.Is).
var ErrStalled = errors.New("tempest: barrier stalled")

// StallError reports a barrier round that the watchdog gave up on: some
// participant never arrived within the wall-clock bound.
type StallError struct {
	Arrived, N  int
	Timeout     time.Duration
	Diagnostics string
}

func (e *StallError) Error() string {
	return fmt.Sprintf("tempest: barrier stalled: %d/%d nodes arrived within %v", e.Arrived, e.N, e.Timeout)
}

// Is matches ErrStalled.
func (e *StallError) Is(t error) bool { return t == ErrStalled }

// arm attaches a run's scheduler and bounds the wall-clock duration of any
// single barrier round (0 disables).  onStall, when non-nil, is invoked —
// with the barrier lock held, so no round can resolve and no parked node
// wake meanwhile — to collect diagnostics before the abort.
func (b *Barrier) arm(s *sched.Scheduler, watchdog time.Duration, onStall func(present []bool) string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sched, b.watchdog, b.onStall = s, watchdog, onStall
}

// WaitNode blocks node, the token holder, until all n participants have
// arrived, then returns the maximum clock value passed by any participant
// in this round.  On abort it returns the abort error (errors.Is
// ErrAborted) and the clock the caller passed in.
func (b *Barrier) WaitNode(node int, clock int64) (int64, error) {
	b.mu.Lock()
	if b.err != nil {
		err := b.err
		b.mu.Unlock()
		return clock, err
	}
	if clock > b.max {
		b.max = clock
	}
	b.arrived++
	b.present[node] = true
	s := b.sched
	s.NoteBarrier() // the running segment crosses a barrier
	if b.arrived < b.n {
		if b.arrived == 1 && b.watchdog > 0 {
			gen := b.gen
			b.timer = time.AfterFunc(b.watchdog, func() { b.stalled(gen) })
		}
		// Hand the token on and park until the last arriver has readied
		// this node and the run queue grants it.  The lock goes first: a
		// parked coroutine that held it would stop every other node of the
		// run at its next arrival, and the deadlock callback takes it.
		b.mu.Unlock()
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
	for i := range b.present {
		if i != node {
			s.SetReadyAt(i, res)
		}
		b.present[i] = false
	}
	b.max = 0
	b.arrived = 0
	b.gen++
	b.stopTimer()
	b.mu.Unlock()
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
	b.mu.Lock()
	defer b.mu.Unlock()
	b.abortLocked(cause)
}

func (b *Barrier) abortLocked(cause error) {
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
	b.stopTimer()
}

// Err returns the abort error, or nil while the barrier is healthy.
func (b *Barrier) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// poisonErr is what a scheduling call that found the run poisoned fails
// with: the abort error, which abortLocked stores before it poisons — or a
// stand-in when the scheduler poisoned itself over a failed posted effect
// and the poster has yet to abort on its behalf.
func (b *Barrier) poisonErr() error {
	if err := b.Err(); err != nil {
		return err
	}
	return &abortedError{cause: errors.New("a sibling's posted effect failed")}
}

// stalled is the watchdog timer callback for round gen.
func (b *Barrier) stalled(gen uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil || b.gen != gen || b.arrived == 0 {
		return // the round completed (or already died) before the timer fired
	}
	stall := &StallError{Arrived: b.arrived, N: b.n, Timeout: b.watchdog}
	if b.onStall != nil {
		stall.Diagnostics = b.onStall(b.present)
	}
	b.abortLocked(stall)
}

// stopTimer stops a pending watchdog timer.  Caller holds mu.
func (b *Barrier) stopTimer() {
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
}
