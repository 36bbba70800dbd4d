//go:build go1.23

// (iter is Go 1.23; why the module's go line still says 1.22 is in go.mod.)

package sched

import "iter"

// Run executes body(node) for every node, each as a coroutine of the calling
// goroutine, and returns when every body has returned.  A body begins when
// the node is first granted the token and runs until a scheduling call of
// its own gives the token to another node; that call parks the coroutine and
// returns here, to the trampoline, which resumes whichever node the state
// machine made the token holder.  A body may block in host time only at its
// own risk: every other node of the run waits with it (see Unwind).
//
// When the run is poisoned the trampoline resumes nobody any more: it
// unwinds every parked coroutine, whose scheduling call returns false, and a
// node that was never granted the token never runs at all.  A panic or a
// runtime.Goexit that escapes a body surfaces here, on Run's goroutine, once
// the run has been poisoned and every other node unwound.
func (s *Scheduler) Run(body func(node int)) {
	resume := make([]func() (struct{}, bool), len(s.nodes))
	s.unwinding.Lock()
	s.stop = make([]func(), len(s.nodes))
	for i := range s.nodes {
		resume[i], s.stop[i] = iter.Pull(func(park func(struct{}) bool) {
			s.nodes[i].park = park
			defer s.exit(i)
			body(i)
		})
	}
	s.unwinding.Unlock()

	healthy := false
	defer func() {
		if !healthy {
			s.Poison() // a body took the trampoline down with it
		}
		s.unwind(-1)
	}()
	s.dispatch(-1)
	for cur := s.running; cur >= 0; cur = s.running {
		s.cur.Store(int32(cur))
		if s.poisoned.Load() {
			break
		}
		resume[cur]()
	}
	healthy = true
}

// Unwind unwinds the parked nodes of a poisoned run from outside Run's
// goroutine.  It is for a supervisor whose token holder may have wedged in
// host time, and the trampoline with it: every node but that one is parked,
// and unwinds here, on the caller's goroutine.
func (s *Scheduler) Unwind() { s.unwind(int(s.cur.Load())) }

// unwind stops every coroutine but inside's, the one the trampoline may be
// in.  The trampoline publishes that node before it checks the poison and
// the caller reads it after the poison was set, so either the trampoline saw
// the poison and resumes nobody, or inside is the node it resumed; and once
// poisoned it enters no other.
func (s *Scheduler) unwind(inside int) {
	s.unwinding.Lock()
	defer s.unwinding.Unlock()
	for node, stop := range s.stop {
		if node != inside {
			stop()
		}
	}
}
