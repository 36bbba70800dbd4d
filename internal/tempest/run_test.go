package tempest

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"lcm/internal/sched"
)

// schedBarrier returns a barrier for n participants over a fresh scheduler,
// the way RunErr sets one up for a run.
func schedBarrier(n int) (*Barrier, *sched.Scheduler) {
	b, s := NewBarrier(n), sched.New(n, 0)
	b.arm(s)
	return b, s
}

func TestBarrierAbortReleasesWaiters(t *testing.T) {
	b, s := schedBarrier(3)
	cause := errors.New("participant died")
	errs := make([]error, 3)
	s.Run(func(id int) {
		if id == 2 { // runs last, with both siblings parked in the barrier
			if b.arrived != 2 {
				t.Errorf("%d/2 waiters arrived before the abort", b.arrived)
			}
			b.Abort(cause)
		}
		// The barrier stays poisoned: node 2's wait fails fast instead of
		// blocking forever on a dead sibling.
		_, errs[id] = b.WaitNode(id, 0)
	})
	for id, err := range errs {
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("node %d's wait error = %v, want ErrAborted", id, err)
		}
		if !errors.Is(err, cause) {
			t.Fatalf("abort cause not preserved: %v", err)
		}
	}
	if !errors.Is(b.Err(), ErrAborted) {
		t.Fatalf("Err() = %v, want ErrAborted", b.Err())
	}
}

func TestBarrierSingleParticipantMaxClock(t *testing.T) {
	b, s := schedBarrier(1)
	s.Run(func(int) {
		for round, clock := range []int64{42, 7, 1000} {
			c, err := b.WaitNode(0, clock)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if c != clock {
				// A solo participant's max is its own clock, and the max
				// must reset between rounds (round 1 passes a lower clock).
				t.Fatalf("round %d: clock = %d, want %d", round, c, clock)
			}
		}
	})
}

func TestBarrierReuseAcrossRunPhases(t *testing.T) {
	m, r := newTestMachine(t, 4, 64)
	phase := func() {
		m.Run(func(n *Node) {
			n.WriteU32(r.Base+4*4, uint32(n.ID))
			n.Barrier()
			n.Charge(int64(n.ID) * 100)
			n.Barrier()
		})
	}
	phase()
	phase() // the same machine barrier serves a second Run
	for _, nd := range m.Nodes {
		if nd.Ctr.Barriers != 4 {
			t.Fatalf("node %d barriers = %d, want 4", nd.ID, nd.Ctr.Barriers)
		}
	}
}

// TestRunErrRecoversNodePanic is the regression for the old behaviour
// where a panicking node body crashed the whole process and stranded its
// siblings in the barrier.
func TestRunErrRecoversNodePanic(t *testing.T) {
	m, _ := newTestMachine(t, 4, 64)
	err := m.RunErr(func(n *Node) {
		if n.ID == 2 {
			panic("node body bug")
		}
		n.Barrier()
	})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("RunErr = %v, want *RunError", err)
	}
	first := re.First()
	if first == nil || first.Node != 2 || first.Collateral {
		t.Fatalf("primary failure = %+v, want non-collateral node 2", first)
	}
	if first.Stack == "" {
		t.Fatal("primary failure has no stack")
	}
	collateral := 0
	for _, ne := range re.Nodes {
		if ne.Collateral {
			collateral++
			if !errors.Is(ne.Err, ErrAborted) {
				t.Fatalf("collateral node %d error = %v, want ErrAborted", ne.Node, ne.Err)
			}
		}
	}
	if collateral != 3 {
		t.Fatalf("collateral failures = %d, want 3 (siblings released by abort)", collateral)
	}
	if !strings.Contains(err.Error(), "sibling nodes released") {
		t.Fatalf("error message does not mention released siblings: %v", err)
	}
	if re.Diagnostics == "" {
		t.Fatal("no diagnostics attached to quiescent failure")
	}
}

// TestRunPanicsWithRunError checks the backward-compatible Run wrapper.
func TestRunPanicsWithRunError(t *testing.T) {
	m, _ := newTestMachine(t, 2, 64)
	defer func() {
		r := recover()
		if _, ok := r.(*RunError); !ok {
			t.Fatalf("Run panicked with %T, want *RunError", r)
		}
	}()
	m.Run(func(n *Node) { panic("boom") })
	t.Fatal("Run returned despite node panic")
}

// TestDeadlockReportedAtOnce: a node that returns without arriving leaves
// its sibling waiting for good.  That is the scheduler's deadlock — nothing
// Ready, something Blocked — and it is reported the moment the run queue
// empties.
func TestDeadlockReportedAtOnce(t *testing.T) {
	m, _ := newTestMachine(t, 2, 64)
	start := time.Now()
	err := m.RunErr(func(n *Node) {
		if n.ID == 0 {
			n.Barrier() // node 1 returns without arriving
		}
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadlocked run took %v", elapsed)
	}
	if !errors.Is(err, ErrAborted) || !strings.Contains(err.Error(), "all live nodes blocked") {
		t.Fatalf("RunErr = %v, want the scheduler-deadlock abort", err)
	}
	var re *RunError
	if !errors.As(err, &re) || len(re.Nodes) != 1 || re.Nodes[0].Node != 0 || !re.Nodes[0].Collateral {
		t.Fatalf("RunErr = %+v, want exactly node 0, parked at the barrier, as collateral", err)
	}
}

// TestRunErrLeavesNoGoroutines: a run's coroutines and its trampoline are
// gone when RunErr returns — after a healthy run, after a node dies mid-phase
// (by panic, or by the runtime.Goexit of a t.FailNow) with siblings parked at
// the barrier, in a yield and on a SimLock, and after a scheduler deadlock —
// and each death is the right node's.  The goexit row also checks that a
// body's runtime.Goexit ends the trampoline's goroutine, not the caller's.
func TestRunErrLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	settled := func(what string) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, %d before", what, runtime.NumGoroutine(), base)
			}
		}
	}

	m, r := newTestMachine(t, 4, 64)
	if err := m.RunErr(func(n *Node) { touchAll(t, n, r, 64); n.Barrier() }); err != nil {
		t.Fatal(err)
	}
	settled("healthy run")

	boom := errors.New("node body bug")
	for _, death := range []struct {
		name string
		die  func()
		want error
	}{
		{"panic", func() { panic(boom) }, boom},
		{"goexit", runtime.Goexit, errGoexit},
	} {
		m, _ = newTestMachine(t, 5, 64)
		var lk SimLock
		err := m.RunErr(func(n *Node) {
			switch n.ID {
			case 1: // in a yield that is due after the death
				n.Compute(2000)
				n.SchedYield()
			case 2: // at the barrier, inside the critical section
				lk.Acquire(n)
			case 3: // waiting for the lock node 2 holds
				n.Compute(100)
				lk.Acquire(n)
			case 4: // dies once everyone else is parked
				n.Compute(1000)
				n.SchedYield()
				death.die()
			}
			n.Barrier()
		})
		var re *RunError
		if !errors.As(err, &re) || len(re.Nodes) != 5 {
			t.Fatalf("%s: RunErr = %v, want all 5 nodes failed", death.name, err)
		}
		if first := re.First(); first.Node != 4 || first.Collateral || !errors.Is(first.Err, death.want) {
			t.Errorf("%s: primary failure = %+v, want node 4 dying of %v", death.name, first, death.want)
		}
		for _, ne := range re.Nodes[1:] {
			if !ne.Collateral || !errors.Is(ne.Err, ErrAborted) {
				t.Errorf("%s: node %d: %v (collateral=%v), want a collateral ErrAborted", death.name, ne.Node, ne.Err, ne.Collateral)
			}
		}
		settled("run with a " + death.name)
	}

	m, _ = newTestMachine(t, 2, 64)
	err := m.RunErr(func(n *Node) {
		if n.ID == 0 {
			n.Barrier() // node 1 returns without arriving
		}
	})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("deadlocked run: %v", err)
	}
	settled("deadlocked run")
}

// TestRunErrConfigError: a recorded configuration error surfaces from
// RunErr instead of executing the run.
func TestRunErrConfigError(t *testing.T) {
	m, _ := newTestMachine(t, 2, 64)
	bad := errors.New("bad aggregate")
	m.RecordConfigError(bad)
	ran := false
	err := m.RunErr(func(n *Node) { ran = true })
	if !errors.Is(err, bad) {
		t.Fatalf("RunErr = %v, want recorded config error", err)
	}
	if ran {
		t.Fatal("body ran despite config error")
	}
}
