package sched

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// Tests of the closed-gate poison and of the Blocked-count deadlock check.
// CI runs this package under -race; a send on a closed gate would panic
// in any mode.

// waitAll fails the test if wg does not drain promptly.
func waitAll(t *testing.T, wg *sync.WaitGroup, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: goroutines still parked", what)
	}
}

// poisoned reads the flag the way every scheduling call does.
func poisoned(s *Scheduler) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.poisoned
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

// TestPoisonReleasesEveryAwaitGrant: Poison wakes every node parked in
// AwaitGrant — Ready ones that were never granted, Blocked ones nobody
// readied — and every AwaitGrant after it returns at once.
func TestPoisonReleasesEveryAwaitGrant(t *testing.T) {
	const n = 8
	s := New(n, 0)
	s.Start()
	s.AwaitGrant(0)
	s.Block(0) // node 0 Blocked for good; the token moves to node 1
	var started, wg sync.WaitGroup
	started.Add(n)
	wg.Add(n)
	for id := 0; id < n; id++ {
		go func(id int) {
			defer wg.Done()
			started.Done()
			s.AwaitGrant(id) // node 1: its grant; everyone else: parks
			s.AwaitGrant(id) // node 1 parks here, on a grant that never comes
		}(id)
	}
	started.Wait()
	s.Poison()
	waitAll(t, &wg, "after Poison")
	for id := 0; id < n; id++ {
		s.AwaitGrant(id) // the gates stay open for good
	}
}

// TestNoSendAfterPoison: once poisoned, no entry point that would grant
// the token sends on a (closed) gate — from any node state.
func TestNoSendAfterPoison(t *testing.T) {
	s := New(4, 0)
	s.Start() // node 0 Running
	s.AwaitGrant(0)
	reseat(s, 1, Blocked, 0)
	s.Poison()
	s.Start()
	s.Yield(0, 10) // the token holder
	s.Yield(2, 5)  // a Ready node
	s.Block(0)
	s.SetReady(1)
	s.SetReadyAt(1, 7)
	s.Exit(0) // Running: would pass the token on
	s.Exit(1) // Blocked
	s.Exit(2) // Ready
	s.Exit(3)
	s.Exit(3)
	if !poisoned(s) {
		t.Fatal("poisoned = false after Poison")
	}
}

// TestGrantBufferedBeforePoisonIsConsumed: a grant sent before Poison
// stays in the gate's buffer and is received as a value; only then does
// the gate read as closed.
func TestGrantBufferedBeforePoisonIsConsumed(t *testing.T) {
	s := New(2, 0)
	s.Start() // buffers node 0's grant; nobody is receiving yet
	s.Poison()
	if _, ok := <-s.nodes[0].gate; !ok {
		t.Fatal("node 0's buffered grant was lost to Poison")
	}
	if _, ok := <-s.nodes[0].gate; ok {
		t.Fatal("node 0 received a second grant")
	}
	if _, ok := <-s.nodes[1].gate; ok {
		t.Fatal("node 1 was never granted, yet received a value")
	}
}

// TestDeadlockFiresOnceOnEmptyQueue: the callback fires when the run
// queue is empty, nothing runs and the Blocked count is positive — once,
// however many later calls find the same condition — and not at all when
// the queue empties because every node is Done.
func TestDeadlockFiresOnceOnEmptyQueue(t *testing.T) {
	s := New(3, 0)
	fired := make(chan struct{}, 4)
	s.OnDeadlock(func() { fired <- struct{}{} })
	s.Start()
	for id := 0; id < 3; id++ { // each node in turn takes the token and blocks
		s.AwaitGrant(id)
		s.Block(id)
	}
	select {
	case <-fired:
	case <-time.After(10 * time.Second):
		t.Fatal("callback never fired with 3 Blocked, 0 Ready")
	}
	s.mu.Lock()
	if s.rq.len() != 0 || s.blocked != 3 || s.onDeadlock != nil {
		t.Errorf("after firing: queue %d, blocked %d, callback armed=%v; want 0, 3, false",
			s.rq.len(), s.blocked, s.onDeadlock != nil)
	}
	s.mu.Unlock()
	s.Exit(0) // finds the queue empty and two nodes Blocked again
	s.Exit(1)
	s.Exit(2)
	s.mu.Lock()
	if s.blocked != 0 {
		t.Errorf("Blocked count %d after every node exited", s.blocked)
	}
	s.mu.Unlock()
	select {
	case <-fired:
		t.Fatal("callback fired twice")
	default:
	}

	// A clean finish is not a deadlock.
	s = New(2, 0)
	s.OnDeadlock(func() { fired <- struct{}{} })
	s.Start()
	s.AwaitGrant(0)
	s.Exit(0)
	s.AwaitGrant(1)
	s.Exit(1)
	s.mu.Lock()
	armed := s.onDeadlock != nil
	s.mu.Unlock()
	if !armed {
		t.Fatal("callback fired on a clean finish")
	}
}

// TestInPlaceRegrantRecordsSameSegments: a yield that keeps the token
// must leave the trace a real grant leaves — Segments (the checker's
// footprints), the grant step each segment runs under, Steps.  The same
// script runs twice: through
// the run queue (where node 0, always Order-minimum, is re-granted in
// place) and under a Chooser that picks index 0, which forces every grant
// through dispatch and the gate.
func TestInPlaceRegrantRecordsSameSegments(t *testing.T) {
	run := func(viaChooser bool) ([]Segment, []int, int) {
		s := New(2, 0)
		s.EnableRecording()
		if viaChooser {
			s.SetChooser(func(int, []Candidate) int { return 0 })
		}
		s.Start()
		var keys []int // appended by the token holder only
		// key is the grant step of the segment node is running: the last
		// one recorded, which must be its own.
		key := func(node int) int {
			segs := s.Segments()
			cur := segs[len(segs)-1]
			if cur.Node != node {
				t.Errorf("node %d runs inside node %d's segment", node, cur.Node)
			}
			return cur.Step
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			s.AwaitGrant(0)
			for i := 1; i <= 4; i++ {
				keys = append(keys, key(0))
				s.NoteLock(uint32(i))
				if i == 3 {
					s.NoteBarrier()
				}
				s.Yield(0, int64(i)) // node 1 waits at clock 100: node 0 stays minimum
			}
			keys = append(keys, key(0))
			s.Exit(0)
		}()
		go func() {
			defer wg.Done()
			s.AwaitGrant(1)
			keys = append(keys, key(1))
			s.Yield(1, 100)
			keys = append(keys, key(1))
			s.NoteLock(9)
			s.Exit(1)
		}()
		wg.Wait()
		return s.Segments(), keys, s.Steps()
	}
	segs, keys, steps := run(false)
	wantSegs, wantKeys, wantSteps := run(true)
	if !reflect.DeepEqual(segs, wantSegs) {
		t.Errorf("segments differ:\n in place    %+v\n through gate %+v", segs, wantSegs)
	}
	if !reflect.DeepEqual(keys, wantKeys) || steps != wantSteps {
		t.Errorf("grant steps %v (%d steps) in place, %v (%d steps) through the gate", keys, steps, wantKeys, wantSteps)
	}
	if len(segs) != 7 || segs[2].Node != 0 || !reflect.DeepEqual(segs[2].Blocks, []uint32{2}) || !segs[3].Barrier {
		t.Errorf("unexpected trace %+v", segs)
	}
}
