package sched

import "testing"

// runNodes drives one node per script through the scheduler, each executing
// its script of (clock) yield points, and returns the grant order the
// Chooser was offered.
func runNodes(t *testing.T, s *Scheduler, scripts [][]int64) []int {
	t.Helper()
	var order []int
	s.SetChooser(func(step int, cands []Candidate) int {
		order = append(order, cands[0].Node)
		return 0
	})
	s.Run(func(id int) {
		for _, clock := range scripts[id] {
			s.Yield(id, clock)
		}
	})
	return order
}

// TestGrantOrderByClock: the lowest-clock Ready node always runs next, and
// ties break by node ID under seed 0.
func TestGrantOrderByClock(t *testing.T) {
	s := New(3, 0)
	// Node 0 yields at clock 10 then 30; node 1 at 20; node 2 at 5 then 25.
	order := runNodes(t, s, [][]int64{{10, 30}, {20}, {5, 25}})
	// All start at clock 0: grants 0,1,2 (ties by ID).  Then the run queue
	// is {0@10, 1@20, 2@5}: grant 2, then 0@10, then 1@20, then 2@25, 0@30.
	want := []int{0, 1, 2, 2, 0, 1, 2, 0}
	if len(order) != len(want) {
		t.Fatalf("grant order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v, want %v", order, want)
		}
	}
}

// TestReplayIdentical: the same (scripts, seed) replays the same grant
// sequence, and different seeds may permute same-clock ties but each seed
// is self-consistent.
func TestReplayIdentical(t *testing.T) {
	scripts := [][]int64{{5, 5, 9}, {5, 7}, {5, 5, 5}}
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeef} {
		a := runNodes(t, New(3, seed), scripts)
		b := runNodes(t, New(3, seed), scripts)
		if len(a) != len(b) {
			t.Fatalf("seed %d: replay lengths differ: %v vs %v", seed, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: replay diverged at %d: %v vs %v", seed, i, a, b)
			}
		}
	}
}

// TestBlockSetReady: a Blocked node does not run until a peer readies it,
// and it resumes at the clock the peer assigns.
func TestBlockSetReady(t *testing.T) {
	s := New(2, 0)
	var order []int
	s.SetChooser(func(step int, cands []Candidate) int {
		order = append(order, cands[0].Node)
		return 0
	})
	woken := false
	s.Run(func(id int) {
		if id == 0 { // blocks immediately, waits for node 1 to ready it
			woken = s.Block(0)
			return
		}
		// Node 1 runs, readies node 0 at clock 100, yields past it.
		s.SetReadyAt(0, 100)
		s.Yield(1, 200)
	})
	if !woken {
		t.Fatal("blocked node never woke")
	}
	// Grants: 0 (start), 1 (after block), 0@100 (readied, beats 1@200), 1@200.
	want := []int{0, 1, 0, 1}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("grant order %v, want %v", order, want)
		}
	}
}

// TestSegmentsRecordFootprints: recording captures per-grant segments with
// the lock footprint and barrier flag noted by the running node.
func TestSegmentsRecordFootprints(t *testing.T) {
	s := New(1, 0)
	s.EnableRecording()
	s.Run(func(int) {
		s.NoteLock(7)
		s.NoteLock(3)
		s.Yield(0, 10)
		s.NoteBarrier()
	})
	segs := s.Segments()
	if len(segs) != 2 {
		t.Fatalf("got %d segments, want 2: %+v", len(segs), segs)
	}
	if len(segs[0].Blocks) != 2 || segs[0].Blocks[0] != 7 || segs[0].Blocks[1] != 3 {
		t.Errorf("segment 0 blocks = %v, want [7 3]", segs[0].Blocks)
	}
	if segs[0].Barrier {
		t.Error("segment 0 spuriously marked as barrier")
	}
	if !segs[1].Barrier {
		t.Error("segment 1 missing barrier mark")
	}
}

// TestOrderTotality: Order is a strict total order over distinct nodes for
// any seed (the fuzz target explores this much harder).
func TestOrderTotality(t *testing.T) {
	cands := []Candidate{
		{Node: 0, Clock: 5, Seq: 1}, {Node: 1, Clock: 5, Seq: 9},
		{Node: 2, Clock: 5, Seq: 0}, {Node: 3, Clock: 2, Seq: 4},
	}
	for _, seed := range []uint64{0, 1, 7, 1 << 40} {
		for i := range cands {
			for j := range cands {
				ab, ba := Order(seed, cands[i], cands[j]), Order(seed, cands[j], cands[i])
				if i == j && (ab || ba) {
					t.Fatalf("seed %d: candidate %d ordered before itself", seed, i)
				}
				if i != j && ab == ba {
					t.Fatalf("seed %d: candidates %d,%d not totally ordered (ab=%v ba=%v)", seed, i, j, ab, ba)
				}
			}
		}
	}
}

// TestSetReadyAndSteps: a lock-style handshake — node 0 blocks, node 1
// wakes it with SetReady at its recorded clock — plus the post-run Steps
// accessor and the no-op guards on SetReady, exit, and the note hooks.
func TestSetReadyAndSteps(t *testing.T) {
	s := New(2, 0)
	s.Run(func(id int) {
		if id == 0 {
			s.Block(0) // park until node 1 readies us
			s.Yield(0, 10)
			return
		}
		s.SetReady(0)
		s.Yield(1, 5)
	})
	if got := s.Steps(); got < 4 {
		t.Fatalf("Steps() = %d, want at least 4 grants", got)
	}
	// Post-run guards: note hooks without recording, readying a Done
	// node, and double Exit must all be no-ops.
	s.NoteLock(0)
	s.NoteBarrier()
	s.SetReady(0)
	s.exit(0)
	if segs := s.Segments(); len(segs) != 0 {
		t.Fatalf("segments recorded without EnableRecording: %v", segs)
	}
}

// TestPoisonGuards: after Poison, the state-changing entry points are
// no-ops and a second Poison is idempotent.
func TestPoisonGuards(t *testing.T) {
	s := New(2, 0)
	s.Poison()
	s.Poison() // idempotent
	if s.Block(0) || s.Yield(0, 5) || s.Drain(0) {
		t.Fatal("a scheduling call succeeded on a poisoned scheduler")
	}
	s.SetReady(0)
	s.SetReadyAt(0, 5)
	s.Post(0, 5)
	s.exit(0)
	if s.nodes[0].state != Ready || s.rq.len() != 2 || s.Steps() != 0 {
		t.Fatal("a poisoned scheduler's state machine moved")
	}
}

// TestOrderPinned pins the exact total order for a fixed candidate set
// under fixed seeds.  The doc comment on Order specifies the comparison
// (clock, then seeded mix, then node, then seq); every golden result is a
// function of that exact order, so any change to the hash or the tie-break
// sequence must show up here as a deliberate golden update.
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
	// A later clock loses to an earlier one regardless of seed, node, or
	// seq.
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
