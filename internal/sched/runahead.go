package sched

// Run-ahead: the scheduler side of handlers that post their shared effect
// instead of yielding (the package comment has the summary, DESIGN.md
// "Run-ahead" the argument for why no observable moves).
//
// The machine keeps the posts — a bounded log per node — and hands the
// scheduler one function to consume them.  The scheduler keeps only what
// ordering needs: for each non-empty log one run-queue entry, keyed like
// the yield it replaces.

// ApplyFunc applies the oldest post in node's log, inside the scheduling
// call of whichever node is moving the token, and removes it.  If the log
// holds another post it returns that post's virtual time — the node's clock
// at that handler's entry as of now, the moment the serial order has the node
// running towards it — and true.  It is called while no node holds the
// token; it must not call back into the Scheduler.
type ApplyFunc func(node int) (next int64, more bool)

// SetRunAhead lets nodes Post scheduling points instead of yielding at
// them.  Must precede Run; incompatible with a Chooser and with recording,
// both of which need every scheduling point to be a real one.
func (s *Scheduler) SetRunAhead(apply ApplyFunc) {
	if s.chooser != nil || s.record {
		panic("sched: SetRunAhead is incompatible with Chooser/recording")
	}
	s.apply = apply
}

// Post queues the scheduling point the token holder has just appended to
// its empty log: a Yield(node, clock) whose segment the ApplyFunc will run
// when its turn comes, while node keeps the token and runs on.  Posts
// appended to a non-empty log need no call; dispatch keys each as it applies
// the one before.
func (s *Scheduler) Post(node int, clock int64) {
	if !s.poisoned {
		s.rq.push(s.postEntry(node, clock))
	}
}

// postEntry is the bookkeeping of a Yield at clock — the node's recorded
// clock and sequence number advance — returning the run-queue key.
func (s *Scheduler) postEntry(node int, clock int64) rqEntry {
	ns := &s.nodes[node]
	ns.clock = clock
	ns.seq++
	e := s.entry(node)
	e.post = 1
	return e
}

// Drain parks node, the token holder, until every post in its log has been
// applied, and resumes it inside the segment of the last one: the place the
// node would be in had it yielded at each.  A node drains before anything
// that reads what other nodes' segments write — its own stolen cycles above
// all — and before every real scheduling call.  Returns false when the
// scheduler is poisoned; the caller then checks PostFailure and unwinds.
func (s *Scheduler) Drain(node int) bool {
	if s.poisoned {
		return false
	}
	if !s.rq.queued(node) {
		return true
	}
	ns := &s.nodes[node]
	ns.state = Draining
	if s.running == node {
		s.running = -1
	}
	return s.dispatch(node) || ns.park(struct{}{})
}

// postFailure is the panic that applying one of node's posts raised.
type postFailure struct {
	node  int
	value any
}

// applyPosts applies posts from the top of the run queue, each in the grant
// step it stands for, while the minimum is a post whose log holds another:
// it returns -1 when the minimum is a Ready node (or nothing), or the node
// whose log has just run dry, taken out of the queue.  A panic inside the
// ApplyFunc is a failure of the node that posted, not of the node that
// happens to drive dispatch: it is kept for that node's PostFailure and the
// scheduler is poisoned, which unwinds the poster out of Drain.  One recover
// covers the whole run of posts.
func (s *Scheduler) applyPosts() (dry int, ok bool) {
	node := -1
	defer func() {
		if !ok {
			s.fail = &postFailure{node, recover()}
			s.Poison()
		}
	}()
	for {
		top := s.rq.min()
		if top.post == 0 {
			return -1, true
		}
		node = int(top.node)
		s.beginSegment(node)
		next, more := s.apply(node)
		s.applies++
		if !more {
			s.rq.popMin()
			return node, true
		}
		s.rq.replaceMin(s.postEntry(node, next))
	}
}

// PostFailure returns the value of the panic that applying one of node's
// posts raised, nil if there was none.
func (s *Scheduler) PostFailure(node int) any {
	if s.fail != nil && s.fail.node == node {
		return s.fail.value
	}
	return nil
}

// Stats counts the work of one run's scheduling points.
type Stats struct {
	// Grants is the number of scheduling decisions (Steps).
	Grants int64
	// Handoffs is how many of them moved the token to another node's
	// coroutine.
	Handoffs int64
	// Applies is how many were posts, applied without a switch.
	Applies int64
}

// Stats returns the run's counts.  Call only after the run completes.
func (s *Scheduler) Stats() Stats {
	return Stats{Grants: int64(s.step), Handoffs: s.handoffs, Applies: s.applies}
}
