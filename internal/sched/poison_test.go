package sched

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// Tests of the poison flag — what unwinds, how often, on which goroutine —
// and of the Blocked-count deadlock check.

// far is a clock no test reaches: a node that yields at it stays parked,
// Ready, for as long as any other node can run.
const far = int64(1) << 60

// settled polls until the process is back at base goroutines: a coroutine
// that has been unwound takes a moment to leave the runtime's count.
func settled(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before the run", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// parkOne parks node the way its ID says — 0 Ready, 1 Blocked, 2 Draining
// behind a post, which needs run-ahead — and reports what the scheduling
// call returned.
func parkOne(s *Scheduler, node int) bool {
	switch node {
	case 0:
		return s.Yield(0, far)
	case 1:
		return s.Block(1)
	default:
		s.Post(2, far)
		return s.Drain(2)
	}
}

// TestPoisonReleasesWaiters: poisoning unwinds a parked node and turns
// scheduling calls into no-ops, so an unwinding node cannot hang.
func TestPoisonReleasesWaiters(t *testing.T) {
	s := New(2, 0)
	released := false
	s.Run(func(id int) {
		if id == 0 {
			released = !s.Yield(0, far) && !s.Yield(0, far)
			return
		}
		s.Poison()
		if s.Yield(1, 10) {
			t.Error("Yield succeeded after Poison")
		}
	})
	if !released || !s.poisoned {
		t.Fatalf("released=%v poisoned=%v after Poison with a node parked", released, s.poisoned)
	}
}

// TestPoisonUnwindsEveryParkedNodeOnce: with P−1 nodes parked — Ready,
// Blocked and Draining — and a fifth not yet begun, Poison makes the
// scheduling call each is parked in return false, once; nothing any of them
// calls afterwards succeeds or moves the state machine; the node that had
// not begun never runs; and no coroutine outlives Run.
func TestPoisonUnwindsEveryParkedNodeOnce(t *testing.T) {
	base := runtime.NumGoroutine()
	const p = 5
	s := New(p, 0)
	s.SetRunAhead(func(int) (int64, bool) { return 0, false })
	var unwound, after [p]int
	steps := -1
	s.Run(func(id int) {
		switch id {
		case 3: // holds the token with 0, 1, 2 parked and 4 waiting for its first grant
			steps = s.Steps()
			s.Poison()
		case 4:
			t.Error("a node without its first grant ran after Poison")
			return
		default:
			if parkOne(s, id) {
				t.Errorf("node %d was resumed, not unwound", id)
			}
			unwound[id]++
		}
		if s.Yield(id, 1) || s.Block(id) || s.Drain(id) {
			after[id]++
		}
		s.Post(id, 1)
		s.SetReady(1)
	})
	if want := [p]int{1, 1, 1}; unwound != want || after != [p]int{} {
		t.Errorf("unwound %v (want %v), later calls that succeeded %v", unwound, want, after)
	}
	if s.Steps() != steps || s.nodes[1].state != Blocked || s.nodes[2].state != Draining || s.rq.len() != 3 {
		t.Errorf("the state machine moved after Poison: %d steps (was %d), states %v %v, queue %d",
			s.Steps(), steps, s.nodes[1].state, s.nodes[2].state, s.rq.len())
	}
	settled(t, base, "after a poisoned run")
}

// TestBodyDeathUnwindsTheRun: a panic or a runtime.Goexit (what t.FailNow
// is) inside one body surfaces on Run's goroutine, as that body's, after
// every other node has been unwound once; the trampoline is not wedged and
// nothing leaks.
func TestBodyDeathUnwindsTheRun(t *testing.T) {
	boom := errors.New("boom")
	for _, goexit := range []bool{false, true} {
		base := runtime.NumGoroutine()
		const p = 4
		s := New(p, 0)
		s.SetRunAhead(func(int) (int64, bool) { return 0, false })
		var unwound [p]int
		type outcome struct {
			returned bool
			value    any
		}
		ended := make(chan outcome)
		go func() {
			out := outcome{}
			defer func() {
				out.value = recover()
				ended <- out
			}()
			s.Run(func(id int) {
				if id < 3 {
					if !parkOne(s, id) {
						unwound[id]++
					}
					return
				}
				if goexit {
					runtime.Goexit()
				}
				panic(boom)
			})
			out.returned = true
		}()
		var out outcome
		select {
		case out = <-ended:
		case <-time.After(10 * time.Second):
			t.Fatalf("goexit=%v: Run wedged", goexit)
		}
		if out.returned || (goexit && out.value != nil) || (!goexit && out.value != boom) {
			t.Errorf("goexit=%v: Run ended with %+v, want node 3's death", goexit, out)
		}
		if want := [p]int{1, 1, 1}; unwound != want || !s.poisoned {
			t.Errorf("goexit=%v: unwound %v, want %v; poisoned=%v", goexit, unwound, want, s.poisoned)
		}
		settled(t, base, "after a body died")
	}
}

// TestDeadlockCallback: a lone node that blocks has deadlocked the run; the
// callback fires inside that Block, which reports the poison.
func TestDeadlockCallback(t *testing.T) {
	s := New(1, 0)
	fired, inBlock, resumed := 0, false, true
	s.OnDeadlock(func() {
		if !inBlock {
			t.Error("deadlock reported outside the scheduling call that caused it")
		}
		fired++
	})
	s.Run(func(int) {
		inBlock = true
		resumed = s.Block(0) // nothing can ever ready us
		inBlock = false
	})
	if fired != 1 || resumed || !s.poisoned {
		t.Fatalf("fired %d times, Block returned %v, poisoned=%v; want 1, false, true", fired, resumed, s.poisoned)
	}
}

// TestDeadlockFiresOnceOnEmptyQueue: the callback fires when the run
// queue is empty, nothing runs and the Blocked count is positive — once,
// synchronously, however many nodes are then unwound into the same
// condition — and not at all when the queue empties because every node is
// Done.
func TestDeadlockFiresOnceOnEmptyQueue(t *testing.T) {
	s := New(3, 0)
	fired, blocker := 0, -1
	var resumed [3]bool
	s.OnDeadlock(func() {
		fired++
		if s.rq.len() != 0 || s.blocked != 3 || s.onDeadlock != nil || blocker != 2 {
			t.Errorf("fired with queue %d, blocked %d, callback armed=%v, inside node %d's Block; want 0, 3, false, 2",
				s.rq.len(), s.blocked, s.onDeadlock != nil, blocker)
		}
	})
	s.Run(func(id int) { // each node in turn takes the token and blocks
		blocker = id
		resumed[id] = s.Block(id)
	})
	if fired != 1 || resumed != [3]bool{} {
		t.Errorf("callback fired %d times, Block returned %v; want once, all false", fired, resumed)
	}

	// A clean finish is not a deadlock.
	s = New(2, 0)
	s.OnDeadlock(func() { fired++ })
	s.Run(func(id int) { s.Yield(id, 10) })
	if fired != 1 || s.onDeadlock == nil || s.poisoned {
		t.Fatal("callback fired, or the run was poisoned, on a clean finish")
	}
}

// TestInPlaceRegrantRecordsSameSegments: a yield that keeps the token
// must leave the trace a real grant leaves — Segments (the checker's
// footprints), the grant step each segment runs under, Steps.  The same
// script runs twice: through
// the run queue (where node 0, always Order-minimum, is re-granted in
// place) and under a Chooser that picks index 0, which forces every grant
// through dispatch and the trampoline.
func TestInPlaceRegrantRecordsSameSegments(t *testing.T) {
	run := func(viaChooser bool) ([]Segment, []int, int) {
		s := New(2, 0)
		s.EnableRecording()
		if viaChooser {
			s.SetChooser(func(int, []Candidate) int { return 0 })
		}
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
		s.Run(func(id int) {
			if id == 1 {
				keys = append(keys, key(1))
				s.Yield(1, 100)
				keys = append(keys, key(1))
				s.NoteLock(9)
				return
			}
			for i := 1; i <= 4; i++ {
				keys = append(keys, key(0))
				s.NoteLock(uint32(i))
				if i == 3 {
					s.NoteBarrier()
				}
				s.Yield(0, int64(i)) // node 1 waits at clock 100: node 0 stays minimum
			}
			keys = append(keys, key(0))
		})
		return s.Segments(), keys, s.Steps()
	}
	segs, keys, steps := run(false)
	wantSegs, wantKeys, wantSteps := run(true)
	if !reflect.DeepEqual(segs, wantSegs) {
		t.Errorf("segments differ:\n in place    %+v\n via dispatch %+v", segs, wantSegs)
	}
	if !reflect.DeepEqual(keys, wantKeys) || steps != wantSteps {
		t.Errorf("grant steps %v (%d steps) in place, %v (%d steps) via dispatch", keys, steps, wantKeys, wantSteps)
	}
	if len(segs) != 7 || segs[2].Node != 0 || !reflect.DeepEqual(segs[2].Blocks, []uint32{2}) || !segs[3].Barrier {
		t.Errorf("unexpected trace %+v", segs)
	}
}
