package tempest

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"lcm/internal/sched"
)

// Barrier is a reusable sense-reversing barrier that also computes the
// maximum virtual clock of the arriving nodes; Wait returns that maximum,
// which each node adopts as its post-barrier clock.
//
// A barrier can be aborted: Abort releases every current waiter and makes
// every future wait fail fast with the same distinguished error, so the
// death of one participant cannot strand its siblings forever.  An
// optional wall-clock watchdog (SetWatchdog) aborts a round that stalls —
// some participant failed to arrive in time — after collecting per-node
// diagnostics; this turns a silent deadlock into a structured, bounded
// failure.  Once aborted, a barrier stays poisoned; build a fresh machine
// to run again.
type Barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	arrived int
	gen     uint64
	max     int64
	result  int64

	// present[i] records that node i is parked in the current round,
	// for the watchdog's diagnostics.  Guarded by mu.
	present []bool

	// err, once set, poisons the barrier: all waits return it.
	err error

	// foldClocks, when non-nil (machine barriers), is called under mu at
	// the instant the last participant arrives; it folds every node's
	// stolen handler cycles and returns the resulting clock maximum.  All
	// participants are quiescent inside WaitNode at that point, so the
	// fold cannot race an in-flight ChargeRemote.
	foldClocks func() int64

	// sched, when non-nil, is the run's deterministic scheduler: parkers
	// hand the token on, the last arriver readies them, and an abort
	// poisons the scheduler so unwinding nodes free-run.
	sched *sched.Scheduler

	watchdog time.Duration
	onStall  func(present []bool) string
	timer    *time.Timer
}

// NewBarrier creates a barrier for n participants.
func NewBarrier(n int) *Barrier {
	b := &Barrier{n: n, present: make([]bool, n)}
	b.cond = sync.NewCond(&b.mu)
	return b
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

// setSched attaches (or detaches, with nil) a run's deterministic
// scheduler.
func (b *Barrier) setSched(s *sched.Scheduler) {
	b.mu.Lock()
	b.sched = s
	b.mu.Unlock()
}

// SetWatchdog bounds the wall-clock duration of any single barrier round
// (0 disables).  onStall, when non-nil, is invoked — with the barrier
// lock held, so parked nodes are quiescent and their state is safely
// readable — to collect diagnostics before the abort.
func (b *Barrier) SetWatchdog(d time.Duration, onStall func(present []bool) string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.watchdog = d
	b.onStall = onStall
}

// Wait blocks until all n participants have arrived, then returns the
// maximum clock value passed by any participant in this round.  It panics
// if the barrier is aborted while waiting; Machine.RunErr recovers such
// panics into a structured per-node error.  Use WaitNode to observe the
// abort as an error instead.
func (b *Barrier) Wait(clock int64) int64 {
	c, err := b.WaitNode(-1, clock)
	if err != nil {
		panic(err)
	}
	return c
}

// WaitNode is Wait with an error return and a participant identity for
// the watchdog's diagnostics (pass -1 when the caller is not a node).  On
// abort it returns the abort error (errors.Is ErrAborted) and the clock
// the caller passed in.
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
	gen := b.gen
	b.arrived++
	if node >= 0 && node < len(b.present) {
		b.present[node] = true
	}
	s := b.sched
	if s != nil && node >= 0 {
		s.NoteBarrier() // the running segment crosses a barrier
	}
	if b.arrived == b.n {
		// Last arriver: every participant is inside WaitNode, so fold the
		// stolen handler cycles race-free (see foldClocks) and resolve the
		// round at the true clock maximum.
		if b.foldClocks != nil {
			if f := b.foldClocks(); f > b.max {
				b.max = f
			}
		}
		b.result = b.max
		res := b.result
		// Under the deterministic scheduler the last arriver — the only
		// running node — readies its parked siblings itself, so wakeup
		// order never depends on the host (invariant 1 in sched's docs).
		// All resume at the barrier's resolved time; ties break by node.
		if s != nil && node >= 0 {
			for i, p := range b.present {
				if p && i != node {
					s.SetReadyAt(i, res)
				}
			}
		}
		b.max = 0
		b.arrived = 0
		for i := range b.present {
			b.present[i] = false
		}
		b.gen++
		b.stopTimer()
		b.cond.Broadcast()
		b.mu.Unlock()
		if s != nil && node >= 0 {
			// Re-enter the run queue alongside the siblings just readied.
			s.Yield(node, res)
		}
		return res, nil
	}
	if b.arrived == 1 && b.watchdog > 0 {
		b.timer = time.AfterFunc(b.watchdog, func() { b.stalled(gen) })
	}
	if s != nil && node >= 0 {
		// Hand the token on before parking.  Safe while holding b.mu: the
		// granted node can only contend for b.mu once we release it inside
		// cond.Wait, and nothing we touch until then is simulator state.
		s.Block(node)
	}
	for gen == b.gen && b.err == nil {
		b.cond.Wait()
	}
	if b.err != nil {
		err := b.err
		b.mu.Unlock()
		return clock, err
	}
	res := b.result
	b.mu.Unlock()
	if s != nil && node >= 0 {
		// Readied by the last arriver; wait for the run queue's grant
		// before re-entering simulator code.
		s.AwaitGrant(node)
	}
	return res, nil
}

// Abort poisons the barrier with cause: every parked waiter wakes and
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
	if b.sched != nil {
		// Lock order is always barrier → scheduler, so poisoning here is
		// safe; released waiters must not block on the dead run queue.
		b.sched.Poison()
	}
	b.stopTimer()
	b.cond.Broadcast()
}

// Err returns the abort error, or nil while the barrier is healthy.
func (b *Barrier) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
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
		// Parked nodes released the lock inside cond.Wait and cannot
		// wake before our Broadcast, so the callback reads their state
		// race-free under mu.
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
