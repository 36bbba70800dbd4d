//go:build go1.23

// (iter is Go 1.23; why the module's go line still says 1.22 is in go.mod.)

package sched

import "iter"

// Run executes body(node) for every node, each as a coroutine of the calling
// goroutine, and returns when every body has returned.  A body begins when
// the node is first granted the token and runs until a scheduling call of
// its own gives the token to another node; that call parks the coroutine and
// returns here, to the trampoline, which resumes whichever node the state
// machine made the token holder.  A body that blocks in host time, or never
// reaches a scheduling point, holds the token — and Run — for as long as it
// does.
//
// When the run is poisoned the trampoline resumes nobody any more: it
// unwinds every parked coroutine, whose scheduling call returns false, and a
// node that was never granted the token never runs at all.  A panic or a
// runtime.Goexit that escapes a body surfaces here, on Run's goroutine, once
// the run has been poisoned and every other node unwound.
func (s *Scheduler) Run(body func(node int)) {
	resume := make([]func() (struct{}, bool), len(s.nodes))
	stop := make([]func(), len(s.nodes))
	for i := range s.nodes {
		resume[i], stop[i] = iter.Pull(func(park func(struct{}) bool) {
			s.nodes[i].park = park
			defer s.exit(i)
			body(i)
		})
	}

	healthy := false
	defer func() {
		if !healthy {
			s.Poison() // a body took the trampoline down with it
		}
		for _, unwind := range stop {
			unwind()
		}
	}()
	s.dispatch(-1)
	for cur := s.running; cur >= 0 && !s.poisoned; cur = s.running {
		resume[cur]()
	}
	healthy = true
}
