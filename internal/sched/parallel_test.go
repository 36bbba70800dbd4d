package sched

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestOrderPinned pins the exact total order for a fixed candidate set
// under fixed seeds.  The doc comment on Order specifies the comparison
// (clock, then seeded mix, then node, then seq); the parallel admitter's
// safety proof and the keyed side lists in internal/core both lean on
// that exact order, so any change to the hash or the tie-break sequence
// must show up here as a deliberate golden update.
func TestOrderPinned(t *testing.T) {
	cands := []Candidate{
		{Node: 0, Clock: 100, Seq: 3},
		{Node: 1, Clock: 100, Seq: 3},
		{Node: 2, Clock: 100, Seq: 3},
		{Node: 3, Clock: 100, Seq: 3},
		{Node: 4, Clock: 100, Seq: 5},
		{Node: 5, Clock: 40, Seq: 1},
		{Node: 6, Clock: 250, Seq: 9},
		{Node: 7, Clock: 100, Seq: 4},
	}
	want := map[uint64][]int{
		// Seed 0: clock ascending, same-clock ties by node ID.
		0: {5, 0, 1, 2, 3, 4, 7, 6},
		// Non-zero seeds permute only the same-clock ties (nodes 0-4, 7);
		// clock extremes stay pinned at the ends.
		42:         {5, 2, 4, 0, 3, 7, 1, 6},
		0xdeadbeef: {5, 0, 1, 7, 3, 2, 4, 6},
	}
	for seed, w := range want {
		got := make([]Candidate, len(cands))
		copy(got, cands)
		// Insertion sort via Order keeps the test free of sort-stability
		// assumptions: Order is a strict total order on this set.
		for i := 1; i < len(got); i++ {
			for j := i; j > 0 && Order(seed, got[j], got[j-1]); j-- {
				got[j], got[j-1] = got[j-1], got[j]
			}
		}
		for i := range w {
			if got[i].Node != w[i] {
				t.Errorf("seed %d: position %d is node %d, want %d (full order %v)",
					seed, i, got[i].Node, w[i], nodeIDs(got))
				break
			}
		}
	}
	// The consequence the admitter relies on: a later clock loses to an
	// earlier one regardless of seed, node, or seq.
	a := Candidate{Node: 0, Clock: 101, Seq: 0}
	b := Candidate{Node: 63, Clock: 100, Seq: 1 << 40}
	for _, seed := range []uint64{0, 1, 42, ^uint64(0)} {
		if Order(seed, a, b) || !Order(seed, b, a) {
			t.Errorf("seed %d: clock must dominate every tie-break", seed)
		}
	}
}

func nodeIDs(cs []Candidate) []int {
	ids := make([]int, len(cs))
	for i, c := range cs {
		ids[i] = c.Node
	}
	return ids
}

// states reads every node's scheduling state under the lock.
func states(s *Scheduler) []State {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]State, len(s.nodes))
	for i := range s.nodes {
		out[i] = s.nodes[i].state
	}
	return out
}

// reseat moves node to state st (Ready or Blocked) at the given clock,
// keeping the run queue and the Blocked count in step — what a test that
// stages a mid-run position must use in place of writing the fields.
func reseat(s *Scheduler, node int, st State, clock int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.detach(node)
	s.nodes[node].state = st
	s.nodes[node].clock = clock
	switch st {
	case Ready:
		s.rq.push(s.entry(node))
	case Blocked:
		s.blocked++
	}
}

// TestParallelWindowEdgeStrict: a candidate whose clock equals a running
// member's admission floor must NOT be admitted — the member's next yield
// could land exactly on that clock and sort first (lower node ID wins the
// tie), so admitting would reorder the serial schedule.  One cycle below
// the floor is admissible.
func TestParallelWindowEdgeStrict(t *testing.T) {
	s := New(2, 0)
	s.SetParallel(2, nil)
	// Node 0's first segment declares a 100-cycle floor; node 1 is ready
	// at exactly clock 100.
	s.par.cur[0] = Intent{Kind: IntentCompute, LB: 100}
	reseat(s, 1, Ready, 100)
	s.Start()
	if st := states(s); st[0] != Running || st[1] != Ready {
		t.Fatalf("after Start: states %v, want node 0 Running, node 1 Ready (floor 100 is not > clock 100)", st)
	}
	// One cycle earlier falls strictly inside the window.
	reseat(s, 1, Ready, 99)
	s.mu.Lock()
	s.admitLocked()
	s.mu.Unlock()
	if st := states(s); st[1] != Running {
		t.Fatalf("candidate at clock 99 under floor 100: states %v, want node 1 Running", st)
	}
}

// TestParallelPublishExtendsWindow: with a zero floor nothing can be
// admitted past a just-granted member, but a published clock reopens the
// window and NotePublish must fire the admission itself (the member is
// mid-segment; nobody else will).
func TestParallelPublishExtendsWindow(t *testing.T) {
	s := New(2, 0)
	s.SetParallel(2, nil)
	s.Start() // node 0 granted at clock 0, floor 0; node 1 at clock 0 is not < 0
	if st := states(s); st[0] != Running || st[1] != Ready {
		t.Fatalf("after Start: states %v, want Running/Ready", st)
	}
	// Node 0 publishes progress to clock 7: now every future yield of
	// node 0 lands at >= 7 > 0, so node 1 is safe to run.
	s.PubSlot(0).Store(7)
	s.NotePublish(7)
	if st := states(s); st[1] != Running {
		t.Fatalf("after publish to 7: states %v, want node 1 Running", st)
	}
}

// TestParallelFenceRunsAlone: a fence-intent candidate is only admitted
// into an empty frontier, and while it runs nothing else is admitted.
func TestParallelFenceRunsAlone(t *testing.T) {
	s := New(3, 0)
	s.SetParallel(3, nil)
	s.par.cur[0] = Intent{} // fence
	s.Start()
	if st := states(s); st[0] != Running || st[1] != Ready || st[2] != Ready {
		t.Fatalf("fence must run alone: states %v", st)
	}
	// Even an infinitely-published fence member admits nobody.
	s.PubSlot(0).Store(1 << 40)
	s.NotePublish(1 << 40)
	if st := states(s); st[1] != Ready || st[2] != Ready {
		t.Fatalf("fence member must block all admission: states %v", st)
	}
}

// TestParallelLockHeldSerialToken: while a simulated lock is held the
// frontier degenerates to one node at a time, and releasing the lock
// re-opens admission.
func TestParallelLockHeldSerialToken(t *testing.T) {
	s := New(2, 0)
	s.SetParallel(2, nil)
	s.par.cur[0] = Intent{Kind: IntentCompute, LB: 1000}
	s.SetLockHeld(0, true)
	s.Start()
	if st := states(s); st[0] != Running || st[1] != Ready {
		t.Fatalf("lock held: states %v, want serial token", st)
	}
	s.SetLockHeld(0, false) // re-runs admission; node 1 clock 0 < floor 1000
	if st := states(s); st[1] != Running {
		t.Fatalf("lock released: states %v, want node 1 admitted", st)
	}
}

// TestParallelSetReadyOnWindowEdge: a blocked node readied at exactly a
// member's floor must wait (strictness applies to wakeups too); readied
// one cycle below, it runs immediately.
func TestParallelSetReadyOnWindowEdge(t *testing.T) {
	s := New(3, 0)
	s.SetParallel(3, nil)
	s.par.cur[0] = Intent{Kind: IntentCompute, LB: 100}
	reseat(s, 1, Blocked, 0)
	reseat(s, 2, Blocked, 0)
	s.Start()
	s.SetReadyIntent(1, 100, Intent{Kind: IntentCompute, LB: 4000})
	if st := states(s); st[1] != Ready {
		t.Fatalf("wakeup at clock 100 == floor 100: states %v, want node 1 still waiting", st)
	}
	s.SetReadyIntent(2, 99, Intent{Kind: IntentCompute, LB: 4000})
	if st := states(s); st[2] != Running {
		t.Fatalf("wakeup at clock 99 < floor 100: states %v, want node 2 admitted", st)
	}
	// Node 1 stays correct across the member's own progress: publish past
	// its clock and it must be released (node 2's floor is 99+4000).
	s.PubSlot(0).Store(101)
	s.NotePublish(101)
	if st := states(s); st[1] != Running {
		t.Fatalf("after publish past the edge: states %v, want node 1 admitted", st)
	}
}

// scriptStep is one segment of a scripted node: run to the given clock,
// then yield declaring the intent for the NEXT segment.
type scriptStep struct {
	clock int64
	next  Intent
}

// frontierSize counts nodes the scheduler currently has Running.
func frontierSize(s *Scheduler) int {
	n := 0
	for _, st := range states(s) {
		if st == Running {
			n++
		}
	}
	return n
}

// runScripted drives scripted nodes through s and returns the grant
// sequence indexed by grant step (via GrantKey, which is written under
// the scheduler lock before each grant) plus the peak number of nodes
// the scheduler held in the Running state at once.  Frontier occupancy
// is read from scheduler state rather than wall-clock overlap so the
// measurement works on a single-CPU host, where goroutines never
// physically overlap.
func runScripted(t *testing.T, s *Scheduler, scripts [][]scriptStep) ([]int, int) {
	t.Helper()
	total := len(scripts)
	for _, sc := range scripts {
		total += len(sc)
	}
	order := make([]int, total)
	var peak atomic.Int64
	var wg sync.WaitGroup
	s.Start()
	for id := range scripts {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s.AwaitGrant(id)
			for _, st := range scripts[id] {
				if f := int64(frontierSize(s)); f > peak.Load() {
					peak.Store(f) // racy max is fine: only used as a lower bound
				}
				order[s.GrantKey(id)] = id
				if s.Parallel() {
					s.PubSlot(id).Store(st.clock)
					s.NotePublish(st.clock)
				}
				s.YieldIntent(id, st.clock, st.next)
			}
			order[s.GrantKey(id)] = id
			s.Exit(id)
		}(id)
	}
	wg.Wait()
	return order[:s.Steps()], int(peak.Load())
}

// TestParallelGrantOrderMatchesSerial runs the same scripted workload
// through the serial token and the parallel frontier (with compute and
// fault intents, overlapping and distinct blocks, an AdmitFunc vetoing
// same-home pairs) and asserts the grant sequences are identical.  It
// also asserts the parallel run actually overlapped segments — the test
// would pass vacuously if admission never fired.
func TestParallelGrantOrderMatchesSerial(t *testing.T) {
	mkScripts := func() [][]scriptStep {
		fault := func(block uint32, home int, lb int64) Intent {
			return Intent{Kind: IntentFault, Block: block, Home: home, LB: lb}
		}
		compute := func(lb int64) Intent { return Intent{Kind: IntentCompute, LB: lb} }
		// Four nodes, clocks spread so admission windows open and close;
		// every node's charge between yields is >= the LB it declared.
		return [][]scriptStep{
			{{100, fault(1, 1, 250)}, {400, compute(40)}, {460, fault(2, 1, 250)}, {800, Intent{}}, {900, compute(40)}},
			{{90, fault(3, 2, 250)}, {380, compute(40)}, {430, fault(1, 1, 250)}, {780, compute(40)}},
			{{110, fault(4, 3, 250)}, {420, fault(4, 3, 250)}, {700, compute(40)}},
			{{95, compute(40)}, {200, fault(5, 0, 250)}, {600, Intent{}}, {820, compute(40)}},
		}
	}
	admit := func(c Candidate, it Intent, peers []Peer) bool {
		if it.Kind != IntentFault {
			return true
		}
		for _, p := range peers {
			if p.It.Kind == IntentFault && p.It.Home == it.Home {
				return false
			}
		}
		return true
	}
	for _, seed := range []uint64{0, 42, 0xdeadbeef} {
		serial, _ := runScripted(t, New(4, seed), mkScripts())
		par := New(4, seed)
		par.SetParallel(4, admit)
		parallel, peak := runScripted(t, par, mkScripts())
		if len(serial) != len(parallel) {
			t.Fatalf("seed %d: step counts differ: serial %d, parallel %d", seed, len(serial), len(parallel))
		}
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Fatalf("seed %d: grant order diverged at step %d:\nserial   %v\nparallel %v",
					seed, i, serial, parallel)
			}
		}
		if peak < 2 {
			t.Errorf("seed %d: parallel run never overlapped segments (peak %d); admission is not firing", seed, peak)
		}
	}
}
