// Package sched is the seeded deterministic scheduler for the simulated
// multicomputer.
//
// Every node of a machine runs as a coroutine of one goroutine (Run, in
// run.go), and a cooperative token decides which of them executes: exactly
// one node is in simulator code at a time, and the token moves only at
// explicit synchronization points (protocol handler entry, barrier
// entry/exit, simulated locks).  It is the only way a machine runs, and a
// run is a sequence of single-node steps, so nothing below needs a lock: the
// scheduler is a plain state machine that the token holder advances, and a
// scheduling call that gives the token to another node parks its coroutine,
// which returns control to Run's trampoline, which resumes the successor —
// two coroutine switches and no trip through the Go scheduler.  The next
// node to run is the minimum of a virtual-time run queue ordered by
//
//	(virtual clock, seeded tie-break hash, node ID, scheduling sequence)
//
// so the entire interleaving is a pure function of (workload, P, seed) and
// any run replays bit-identically — including simulated cycles and
// copying-mode fault counts at P>1.  Seed 0 is the canonical order
// (cycle, node); a non-zero seed mixes a splitmix64 hash of
// (seed, node, sequence) into ties, selecting an alternative — but equally
// deterministic — interleaving, which is what the CI seed sweep exercises.
//
// The run queue (runqueue.go) is one indexed binary min-heap holding
// the Ready nodes (and, under run-ahead, the oldest post of every node that
// has any: see below), keyed by Order with the tie-break hash computed
// once, at enqueue.  Every reader goes through it: the token is granted to
// its minimum, the checker's Chooser is offered its contents sorted by
// Order, and "nothing is Ready" is "the heap is empty" (with a count of
// Blocked nodes deciding whether that is the end of the run or a
// deadlock).  A scheduling point therefore costs O(log P), and in the
// common case less than that:
//
//   - If the yielding token holder is still the Order-minimum it keeps
//     the token in place.  Step, sequence number and segment recording
//     advance exactly as for a grant, but no coroutine parks.
//   - Otherwise the yielder takes the minimum's place at the top of the
//     heap in a single sift (replace-top), the old minimum is granted, and
//     the yielder parks.
//
// Two invariants make the schedule host-independent:
//
//  1. Only the running node performs Blocked→Ready transitions (a barrier's
//     last arriver readies its parked siblings; a simulated lock's releaser
//     readies its waiters), so wakeup order never depends on the host.
//  2. A node parks in exactly one place, the scheduling call that gave the
//     token away, and only the trampoline resumes it — when the state
//     machine has made it the token holder — or unwinds it.
//
// A poisoned run is over (the machine aborted it: a node died, the watchdog
// fired, the run deadlocked).  Poison is one flag, set from any goroutine.
// Every scheduling call reads it first and returns false without touching
// the state machine, and the trampoline reads it before every resume: it
// hands the token to nobody any more and unwinds each parked coroutine
// instead, whose scheduling call — Yield, Block, Drain — then returns false
// too.  The caller must unwind without touching simulator state, so a
// failing run has at most one node in simulator code, as a healthy one
// does: whichever held the token when the poison landed, until its own next
// scheduling call.
//
// Run-ahead (SetRunAhead) removes most scheduling points from the host
// schedule without moving one in the simulated schedule.  A protocol
// handler whose effect on other nodes can wait posts that effect instead of
// yielding: the node keeps the token and runs on, and the post takes the
// yield's place in the run queue — same Order key, same sequence number,
// same grant step when its turn comes.  dispatch applies posts inline, in
// whichever node's scheduling call is driving it, and only switches
// coroutines when the minimum is a Ready node or a node whose log has just
// run dry while it waits in Drain.  A post's key is its node's clock at the
// handler's entry, read lazily: the first post of an empty log is keyed by
// the poster (it holds the token, so its clock is current), every later one
// at the moment its predecessor is applied, which is when the serial order
// would have had the node running towards that yield.  See DESIGN.md,
// "Run-ahead".
//
// The scheduler also carries the hooks the bounded model checker
// (internal/check) builds on: a Chooser that overrides the run-queue order
// at every grant, an Observer called while the machine is quiescent at
// each decision point, and per-segment footprints (which block locks a
// node touched between two scheduling points) that enable sleep-set
// pruning.
package sched

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// State is a node's scheduling state.
type State uint8

const (
	// Ready: runnable, waiting for the token.
	Ready State = iota
	// Running: holds the token.
	Running
	// Blocked: parked on a simulated event (barrier, simulated lock);
	// another node's SetReady makes it runnable again.
	Blocked
	// Done: the node's body returned or died.
	Done
	// Draining: parked in Drain until the posts in its log, the oldest of
	// which sits in the run queue, have been applied (run-ahead only).
	Draining
)

// Candidate is one Ready node offered to the run queue (and, in checker
// mode, to the Chooser).
type Candidate struct {
	// Node is the node ID.
	Node int
	// Clock is the node's virtual time at its last scheduling point.
	Clock int64
	// Seq counts the node's scheduling points so far.
	Seq uint64
}

// Chooser overrides the run-queue policy: at every grant it receives the
// Ready candidates sorted in canonical order and returns the index to run.
// It is called while every node is quiescent, inside the scheduling call
// that moves the token; it must not call back into the Scheduler.
type Chooser func(step int, cands []Candidate) int

// Segment is the work one node performed between two scheduling points:
// which grant step started it and which block locks it touched.  Segments
// are recorded only when recording is enabled (checker mode).
type Segment struct {
	// Node ran the segment; Step is the grant that started it.
	Node int
	Step int
	// Blocks lists the block locks acquired during the segment, in order.
	Blocks []uint32
	// Barrier marks that the segment ended at (or crossed) a barrier.
	Barrier bool
}

type nodeState struct {
	state State
	clock int64
	seq   uint64
	// park suspends the node's coroutine until the trampoline resumes it
	// (true) or unwinds it (false).  Set by Run.
	park func(struct{}) bool
}

// Scheduler serializes one machine run.  Create a fresh Scheduler per run.
type Scheduler struct {
	nodes []nodeState
	seed  uint64

	// rq holds one entry per Ready node and, under run-ahead, one per node
	// with a non-empty post log (the log's oldest post; such a node is
	// Running or Draining, never Ready).
	rq      runQueue
	blocked int // nodes in the Blocked state

	running int // node holding the token, -1 if none
	step    int // grants so far

	// poisoned is the only state a goroutine without the token writes (the
	// barrier's watchdog does); dead is closed with it, for a supervisor.
	poisoned atomic.Bool
	dead     chan struct{}

	chooser    Chooser
	observer   func(step int)
	onDeadlock func()

	// apply is the machine's side of run-ahead, nil when every handler
	// yields.  fail records the first panic raised inside it.
	apply ApplyFunc
	fail  atomic.Pointer[postFailure]

	handoffs int64 // grants that moved the token to another node's coroutine
	applies  int64 // posts applied by dispatch

	record bool // immutable after Run begins
	segs   []Segment
	curSeg int // index into segs of the running segment, -1 if none

	candBuf []Candidate

	// stop unwinds the coroutines of Run, by node, under unwinding; cur is
	// the node the trampoline is inside (run.go).
	stop      []func()
	cur       atomic.Int32
	unwinding sync.Mutex
}

// New creates a scheduler for n nodes with the given tie-break seed.  All
// nodes start Ready at clock 0.  Configure it, then call Run.
func New(n int, seed uint64) *Scheduler {
	s := &Scheduler{
		nodes:   make([]nodeState, n),
		seed:    seed,
		rq:      newRunQueue(n),
		running: -1,
		curSeg:  -1,
		dead:    make(chan struct{}),
	}
	s.cur.Store(-1)
	for i := range s.nodes {
		s.nodes[i].state = Ready
		s.rq.push(s.entry(i))
	}
	return s
}

// SetChooser installs a grant-order override (checker mode), before Run.
func (s *Scheduler) SetChooser(c Chooser) { s.chooser = c }

// SetObserver installs a quiescent-point callback invoked before every
// grant decision.  Must precede Run.
func (s *Scheduler) SetObserver(f func(step int)) { s.observer = f }

// OnDeadlock installs the callback invoked — once, inside the scheduling
// call that found it, whose caller must therefore hold no lock the callback
// takes — when no node is Ready or Running but some node is still Blocked.
// The run is poisoned when it returns.  Must precede Run.
func (s *Scheduler) OnDeadlock(f func()) { s.onDeadlock = f }

// EnableRecording turns on segment footprint recording, before Run.
func (s *Scheduler) EnableRecording() { s.record = true }

// Yield is a scheduling point: the running node offers the token at the
// given virtual clock and waits to be granted again.  It returns false when
// the run is poisoned: the run is over and the caller must unwind.
func (s *Scheduler) Yield(node int, clock int64) bool {
	if s.poisoned.Load() {
		return false
	}
	ns := &s.nodes[node]
	s.detach(node)
	ns.clock = clock
	ns.seq++
	s.endSegment(node)
	return s.requeue(node) || ns.park(struct{}{})
}

// requeue re-enters the yielding node into the run queue and moves the
// token, reporting whether node kept it (and so must not park).  The caller
// has updated node's clock and seq.
func (s *Scheduler) requeue(node int) bool {
	ns := &s.nodes[node]
	e := s.entry(node)
	if s.running == node && s.chooser == nil && s.observer == nil {
		if s.rq.len() == 0 || e.before(s.rq.min()) {
			// Still the Order-minimum: the grant a dispatch would make,
			// minus the trip through the trampoline.
			s.beginSegment(node)
			return true
		}
		if top := int(s.rq.min().node); s.nodes[top].state == Ready {
			// The common hand-off: take the minimum's place in one sift.
			ns.state = Ready
			s.rq.replaceMin(e)
			s.beginSegment(top)
			return s.grant(top, node)
		}
	}
	// Checker mode decides every grant from the full candidate list, a
	// caller that does not hold the token can only queue up, and a post at
	// the top of the queue must be applied first: all go through dispatch.
	ns.state = Ready
	s.rq.push(e)
	if s.running == node {
		s.running = -1
	}
	return s.dispatch(node)
}

// Block transitions the running node to Blocked, passes the token on and
// parks until a peer's SetReady has made the node runnable and the run queue
// grants it.  Like Yield it returns false when the run is poisoned.
func (s *Scheduler) Block(node int) bool {
	if s.poisoned.Load() {
		return false
	}
	ns := &s.nodes[node]
	s.detach(node)
	ns.state = Blocked
	s.blocked++
	ns.seq++
	s.endSegment(node)
	if s.running == node {
		s.running = -1
	}
	s.dispatch(-1)
	return ns.park(struct{}{})
}

// SetReady makes a Blocked node runnable again at its recorded clock.
// Must be called by the running node (invariant 1 in the package comment).
func (s *Scheduler) SetReady(node int) { s.SetReadyAt(node, s.nodes[node].clock) }

// SetReadyAt is SetReady with an updated virtual clock (a barrier's last
// arriver readies its siblings at the barrier's resolved time).
func (s *Scheduler) SetReadyAt(node int, clock int64) {
	ns := &s.nodes[node]
	if s.poisoned.Load() || ns.state != Blocked {
		return
	}
	s.blocked--
	ns.state = Ready
	ns.clock = clock
	ns.seq++
	s.rq.push(s.entry(node))
}

// exit marks the node Done and passes the token on.  Run calls it when a
// node's body returns or dies (it is safe in any state).
func (s *Scheduler) exit(node int) {
	if s.poisoned.Load() || s.nodes[node].state == Done {
		return
	}
	s.detach(node)
	s.nodes[node].state = Done
	s.endSegment(node)
	if s.running == node {
		s.running = -1
	}
	s.dispatch(-1)
}

// Poison ends the run: every later scheduling call reports it, and the
// trampoline unwinds every parked node instead of resuming another (see the
// package comment).  Safe from any goroutine, holding any lock.
func (s *Scheduler) Poison() {
	if s.poisoned.CompareAndSwap(false, true) {
		close(s.dead)
	}
}

// Poisoned is closed once the run is poisoned.
func (s *Scheduler) Poisoned() <-chan struct{} { return s.dead }

// NoteLock records a block-lock acquisition in the running segment
// (checker mode; cheap no-op otherwise).
func (s *Scheduler) NoteLock(block uint32) {
	if s.record && s.curSeg >= 0 {
		s.segs[s.curSeg].Blocks = append(s.segs[s.curSeg].Blocks, block)
	}
}

// NoteBarrier marks the running segment as crossing a barrier (checker
// mode; cheap no-op otherwise).
func (s *Scheduler) NoteBarrier() {
	if s.record && s.curSeg >= 0 {
		s.segs[s.curSeg].Barrier = true
	}
}

// Segments returns the recorded segment footprints.  Call only after the
// run completes.
func (s *Scheduler) Segments() []Segment { return s.segs }

// Steps returns the number of grants performed.  Call only after the run
// completes.
func (s *Scheduler) Steps() int { return s.step }

// entry builds node's run-queue key from its current clock and seq.
func (s *Scheduler) entry(node int) rqEntry {
	ns := &s.nodes[node]
	e := rqEntry{clock: ns.clock, node: int32(node)}
	if s.seed != 0 {
		e.hash = mix(s.seed, Candidate{Node: node, Seq: ns.seq})
	}
	return e
}

// candidate is the exported view of a run-queue entry.
func (s *Scheduler) candidate(e rqEntry) Candidate {
	return Candidate{Node: int(e.node), Clock: e.clock, Seq: s.nodes[e.node].seq}
}

// detach takes node out of the bookkeeping its current state carries (a
// run-queue slot if Ready — or if it dies with posts pending — and the
// Blocked count if Blocked) ahead of a state change.
func (s *Scheduler) detach(node int) {
	if s.rq.pos[node] >= 0 {
		s.rq.remove(node)
	}
	if s.nodes[node].state == Blocked {
		s.blocked--
	}
}

// dispatch moves the token along the run queue until a node has to run: it
// applies every post that precedes the first Ready node — inline, no
// coroutine switch — and grants that node, or resumes a Draining node the
// moment its log runs dry.  It reports whether the token went to self, the
// calling node (-1 if the caller cannot take it), which then continues
// without parking; otherwise s.running names the node the trampoline resumes
// once the caller has parked or returned.  A no-op while some node holds the
// token.  On deadlock (nothing queued, something Blocked) it fires the
// OnDeadlock callback and poisons the run.
func (s *Scheduler) dispatch(self int) bool {
	if s.poisoned.Load() || s.running != -1 {
		return false
	}
	for {
		if s.rq.len() == 0 {
			if s.blocked > 0 {
				if cb := s.onDeadlock; cb != nil {
					s.onDeadlock = nil // fire once
					cb()
				}
				s.Poison()
			}
			return false
		}
		node := int(s.rq.min().node)
		if s.chooser != nil || s.observer != nil {
			node = s.choose()
		}
		s.beginSegment(node)
		if s.nodes[node].state == Ready {
			s.rq.remove(node)
			return s.grant(node, self)
		}
		// A post (never under a Chooser: node is the minimum).  Its node
		// is Draining — a Running one would hold the token — so once the
		// log is empty the serial order has it running again, in the
		// segment that just began.
		next, more, ok := s.applyPost(node)
		if !ok {
			return false
		}
		if more {
			s.rq.replaceMin(s.postEntry(node, next))
			continue
		}
		s.rq.popMin()
		return s.grant(node, self)
	}
}

// choose is the checker-mode decision: it offers the Observer and the
// Chooser the Ready set sorted by Order and returns the node picked.
func (s *Scheduler) choose() int {
	cands := s.candBuf[:0]
	for _, e := range s.rq.h {
		cands = append(cands, s.candidate(e))
	}
	s.candBuf = cands
	seed := s.seed
	sort.Slice(cands, func(i, j int) bool { return Order(seed, cands[i], cands[j]) })
	if s.observer != nil {
		s.observer(s.step)
	}
	idx := 0
	if s.chooser != nil {
		idx = s.chooser(s.step, cands)
		if idx < 0 || idx >= len(cands) {
			panic(fmt.Sprintf("sched: chooser returned %d of %d candidates", idx, len(cands)))
		}
	}
	return cands[idx].Node
}

// grant moves the token to node, which the caller has already taken out of
// the run queue, and reports whether node is self (which then does not
// park).
func (s *Scheduler) grant(node, self int) bool {
	s.nodes[node].state = Running
	s.running = node
	if node == self {
		return true
	}
	s.handoffs++
	return false
}

// beginSegment is the bookkeeping every grant performs, whether or not the
// token changes hands: the step counter and, in checker mode, a fresh
// Segment.
func (s *Scheduler) beginSegment(node int) {
	if s.record {
		s.segs = append(s.segs, Segment{Node: node, Step: s.step})
		s.curSeg = len(s.segs) - 1
	}
	s.step++
}

// endSegment closes the running segment, if any.
func (s *Scheduler) endSegment(node int) {
	if s.record && s.curSeg >= 0 && s.segs[s.curSeg].Node == node {
		s.curSeg = -1
	}
}

// Order is the run queue's strict total order over candidates.  The
// exact comparison, which the table test in sched_test.go pins for a fixed
// seed, is:
//
//  1. Clock, ascending: earlier virtual time runs first.
//  2. If the seed is non-zero and the candidates' clocks tie: mix(seed,
//     node, seq), ascending, where mix is the splitmix64 finalizer of
//     seed ^ node*0x9e3779b97f4a7c15 ^ seq*0xbf58476d1ce4e5b9.  Seed 0
//     skips this step entirely, giving the canonical (clock, node)
//     order.
//  3. Node ID, ascending (also the hash tie-break, making the order
//     total: node IDs are unique among candidates).
//  4. Seq, ascending — unreachable between two live candidates (a node
//     appears at most once in the Ready set) but kept so Order is total
//     over arbitrary Candidate values, which the fuzz test checks.
func Order(seed uint64, a, b Candidate) bool {
	if a.Clock != b.Clock {
		return a.Clock < b.Clock
	}
	if seed != 0 {
		ha, hb := mix(seed, a), mix(seed, b)
		if ha != hb {
			return ha < hb
		}
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.Seq < b.Seq
}

// mix hashes a candidate under the seed (splitmix64 finalizer, the same
// generator internal/fault uses for its per-node streams).
func mix(seed uint64, c Candidate) uint64 {
	z := seed ^ uint64(c.Node)*0x9e3779b97f4a7c15 ^ c.Seq*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
