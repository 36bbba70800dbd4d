package sched

// Time-parallel execution: conservative-lookahead admission of multiple
// nodes onto real OS threads, bit-identical to the serial token.
//
// The serial scheduler grants the token to the Order-minimum Ready node
// and waits for it to yield.  The parallel mode below keeps the exact
// same grant sequence but releases the next grants early, while earlier
// segments are still running, whenever it can prove the serial order
// could not have been different.  The proof obligations:
//
//   - Grants are released strictly in serial order: the admitter walks
//     the Ready queue in Order and admits the in-order prefix, stopping
//     at the first candidate it cannot prove safe.  It never skips, so
//     the grant sequence — and with it every node's seq numbers, grant
//     steps, and the Steps() total — is identical to the serial run's.
//
//   - A candidate c is only admitted past a running node i if every
//     future scheduling point of i provably lands strictly after
//     c.Clock.  Then i's future Ready entries sort after c under Order
//     (clock dominates every tie-break), so the serial scheduler would
//     also have granted c before revisiting i.  The bound on i is
//     eff(i) = max(grant clock + declared intent lower bound, published
//     clock), where the published clock is a monotone lower bound each
//     node stores (lock-free) as it accumulates charges.  The intent
//     lower bound comes from the interconnect model's MinLatency — no
//     remote operation can cost less — or the local-fill floor for
//     locally-homed faults.
//
//   - A candidate must not interact with any running segment through
//     shared simulator state.  Each scheduling point declares an Intent
//     for the segment it starts: a fence (anything might happen; runs
//     alone), a compute segment (no protocol handler before the next
//     scheduling point), or a fault handler on a declared block.  The
//     machine supplies an AdmitFunc that vetoes candidates whose
//     declared footprint overlaps a running member's (same block, the
//     member is the candidate's home or vice versa, either holds a
//     cached copy of the other's block), in both directions.
//
//   - The interconnect model must price a message without consulting
//     shared state (net.Network.OrderFree): concurrently running
//     segments send in host order.  The machine keeps models that queue
//     messages on shared channels (the fat tree) on the serial token.
//
// When the frontier is empty the Order-minimum candidate is always
// admissible (every check is vacuous), so parallel mode can never get
// stuck where the serial scheduler would have made progress.

import (
	"math"
	"sync/atomic"
)

// IntentKind classifies what a node's next segment may do.
type IntentKind uint8

const (
	// IntentFence is the conservative default: the segment may touch
	// anything, so it runs with the frontier empty and no candidate is
	// admitted while it runs.  The zero Intent is a fence.
	IntentFence IntentKind = iota
	// IntentCompute promises the segment performs no protocol handler,
	// no interconnect operation, and no charge to another node before
	// its next scheduling point.
	IntentCompute
	// IntentFault declares the segment enters a protocol fault handler
	// for Block (whose home node is Home) and performs no other
	// protocol action before its next scheduling point.
	IntentFault
)

// Intent describes the segment a scheduling point is about to start.
type Intent struct {
	Kind IntentKind
	// Block and Home identify the fault target (IntentFault only).
	Block uint32
	Home  int
	// LB is a lower bound on the virtual cycles the node will charge
	// itself before its next scheduling point.  Zero is always sound.
	LB int64
}

// Peer is a running frontier member offered to the AdmitFunc: its node
// ID and the intent its current segment was granted under.
type Peer struct {
	Node int
	It   Intent
}

// AdmitFunc decides whether candidate c, about to start a segment with
// intent it, may run concurrently with the given frontier members.  It
// is called with the scheduler lock held while the members are running;
// it must only read state that running segments cannot mutate (atomic
// line tags, immutable homes) and must not call back into the
// Scheduler.  Returning false is always safe.
type AdmitFunc func(c Candidate, it Intent, peers []Peer) bool

// pubSlot is a node's published-clock slot, padded to a cache line so
// per-charge stores don't false-share between worker threads.
type pubSlot struct {
	v atomic.Int64
	_ [56]byte
}

type parState struct {
	workers int
	admit   AdmitFunc

	cur   []Intent // intent declared for each node's next segment
	run   []Intent // intent each running member was granted under
	floor []int64  // grant clock + intent LB per running member

	isRunning    []bool
	runningCount int
	fenceRun     int // running members granted under a fence intent
	lockHeld     int // nodes inside a simulated-lock critical section

	pubs []pubSlot
	// watch is the Dekker flag pairing the admitter with publishers: the
	// admitter stores the stalled candidate's clock before re-reading
	// publications; a publisher whose new clock exceeds the watch
	// re-runs admission.  One of the two must observe the other (both
	// sides are sequentially-consistent atomics), so no wakeup is lost.
	// math.MaxInt64 means no candidate is stalled on publications.
	watch atomic.Int64

	peersBuf []Peer
}

// SetParallel switches the scheduler into time-parallel mode: up to
// workers nodes run concurrently when the admission rules prove the
// serial order cannot observe the difference.  admit supplies the
// machine-side footprint checks (nil admits on scheduler-side rules
// alone, which is only sound if fault intents never overlap in ways the
// scheduler cannot see — real machines must pass one).  Must precede
// Start; incompatible with a Chooser, an Observer, or recording, all of
// which assume one quiescent decision point per grant, and with
// SetRunAhead, whose posts only the serial dispatch applies.
func (s *Scheduler) SetParallel(workers int, admit AdmitFunc) {
	if workers <= 1 {
		return
	}
	if s.chooser != nil || s.observer != nil || s.record || s.apply != nil {
		panic("sched: SetParallel is incompatible with Chooser/Observer/recording/SetRunAhead")
	}
	n := len(s.nodes)
	p := &parState{
		workers:   workers,
		admit:     admit,
		cur:       make([]Intent, n),
		run:       make([]Intent, n),
		floor:     make([]int64, n),
		isRunning: make([]bool, n),
		pubs:      make([]pubSlot, n),
	}
	for i := range p.cur {
		// Initial segments are compute: any protocol action a node can
		// take begins with its own scheduling point.
		p.cur[i] = Intent{Kind: IntentCompute}
	}
	p.watch.Store(math.MaxInt64)
	s.par = p
}

// Parallel reports whether time-parallel mode is enabled.
func (s *Scheduler) Parallel() bool { return s.par != nil }

// PubSlot returns node's published-clock slot.  The node stores a
// monotone lower bound on its virtual clock there as it runs; the
// admitter reads it lock-free.  Publish through it only from the owning
// node's goroutine, and call NotePublish after each store.
func (s *Scheduler) PubSlot(node int) *atomic.Int64 { return &s.par.pubs[node].v }

// NotePublish tells the admitter node's published clock rose to the
// given value.  Cheap when no candidate is stalled (one atomic load).
func (s *Scheduler) NotePublish(clock int64) {
	p := s.par
	if p == nil || clock <= p.watch.Load() {
		return
	}
	s.mu.Lock()
	if !s.poisoned {
		s.admitLocked()
	}
	s.mu.Unlock()
}

// SetLockHeld brackets a simulated-lock critical section: while any node
// holds a simulated lock the frontier degenerates to the serial token
// (one node at a time), because critical sections span multiple
// segments whose footprints the intents cannot describe.
func (s *Scheduler) SetLockHeld(node int, held bool) {
	p := s.par
	if p == nil {
		return
	}
	s.mu.Lock()
	if held {
		p.lockHeld++
	} else {
		p.lockHeld--
		if !s.poisoned {
			s.admitLocked()
		}
	}
	s.mu.Unlock()
}

// leaveFrontierLocked removes node from the running frontier after its
// segment ended (yield, block, or exit).  Caller holds s.mu.
func (s *Scheduler) leaveFrontierLocked(node int) {
	p := s.par
	if !p.isRunning[node] {
		return
	}
	p.isRunning[node] = false
	p.runningCount--
	if p.run[node].Kind == IntentFence {
		p.fenceRun--
	}
}

// admitLocked releases the longest provably-safe in-order prefix of the
// Ready queue into the frontier.  Caller holds s.mu.
func (s *Scheduler) admitLocked() {
	p := s.par
	if s.poisoned {
		return
	}
	p.watch.Store(math.MaxInt64)
	for {
		if p.fenceRun > 0 {
			return // a fence segment runs alone
		}
		c, ok := s.queueMinLocked()
		if !ok {
			if p.runningCount == 0 {
				s.fireDeadlockLocked()
			}
			return
		}
		if p.runningCount >= p.workers {
			return // capacity; a member's yield re-runs admission
		}
		if p.lockHeld > 0 {
			// Simulated lock held: serial token semantics.
			if p.runningCount > 0 {
				return
			}
			s.grantParallel(c)
			return
		}
		it := p.cur[c.Node]
		if it.Kind == IntentFence {
			if p.runningCount > 0 {
				return
			}
			s.grantParallel(c)
			continue // fenceRun > 0 now; next iteration returns
		}
		ok, lbts := s.parAdmissibleLocked(c, it)
		if !ok {
			if lbts {
				// Stalled on publications: arm the watch, then re-read
				// them (Dekker with NotePublish).
				p.watch.Store(c.Clock)
				if ok2, _ := s.parAdmissibleLocked(c, it); ok2 {
					p.watch.Store(math.MaxInt64)
					s.grantParallel(c)
					continue
				}
			}
			return
		}
		s.grantParallel(c)
	}
}

// queueMinLocked returns the Order-minimum Ready candidate.
func (s *Scheduler) queueMinLocked() (Candidate, bool) {
	if s.rq.len() == 0 {
		return Candidate{}, false
	}
	return s.candidate(s.rq.min()), true
}

// parAdmissibleLocked checks candidate c with intent it against every
// frontier member.  lbts reports whether the (sole, in-order) failure
// was a published-clock bound, the only failure a publication can cure.
func (s *Scheduler) parAdmissibleLocked(c Candidate, it Intent) (ok, lbts bool) {
	p := s.par
	peers := p.peersBuf[:0]
	for i := range s.nodes {
		if !p.isRunning[i] {
			continue
		}
		eff := p.floor[i]
		if pub := p.pubs[i].v.Load(); pub > eff {
			eff = pub
		}
		if eff <= c.Clock {
			p.peersBuf = peers
			return false, true
		}
		ri := p.run[i]
		if it.Kind == IntentFault && ri.Kind == IntentFault && ri.Block == it.Block {
			p.peersBuf = peers
			return false, false
		}
		peers = append(peers, Peer{Node: i, It: ri})
	}
	p.peersBuf = peers
	if len(peers) > 0 && p.admit != nil && !p.admit(c, it, peers) {
		return false, false
	}
	return true, false
}

// grantParallel admits c, the run queue's minimum, into the frontier.
// Caller holds s.mu and has checked poisoned.
func (s *Scheduler) grantParallel(c Candidate) {
	p := s.par
	node := c.Node
	ns := &s.nodes[node]
	s.rq.popMin()
	ns.state = Running
	it := p.cur[node]
	p.run[node] = it
	lb := it.LB
	if lb < 0 {
		lb = 0
	}
	p.floor[node] = c.Clock + lb
	p.isRunning[node] = true
	p.runningCount++
	if it.Kind == IntentFence {
		p.fenceRun++
	}
	s.beginSegment(node)
	s.handoffs++
	ns.gate <- struct{}{} // buffered: never blocks
}
