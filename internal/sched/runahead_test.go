package sched

import (
	"errors"
	"slices"
	"testing"
)

// postRing is a miniature of the machine's side of run-ahead: a bounded log
// of posts per node, each carrying the node-local clock of its scheduling
// point and an effect — one cycle stolen from a victim node — plus the
// per-node stolen totals that make a post's key depend on when it is read.
type postRing struct {
	capacity int
	local    []int64   // node-local clocks (stolen cycles excluded)
	stolen   []int64   // cycles other nodes' effects have stolen
	log      [][]post  // per node, oldest first
	applied  func(int) // observes each apply, before the effect lands
}

type post struct {
	clock  int64
	victim int
}

func newPostRing(p, capacity int) *postRing {
	return &postRing{capacity: capacity, local: make([]int64, p), stolen: make([]int64, p), log: make([][]post, p)}
}

// apply is the ApplyFunc.
func (r *postRing) apply(node int) (int64, bool) {
	if r.applied != nil {
		r.applied(node)
	}
	e := r.log[node][0]
	r.log[node] = r.log[node][1:]
	r.stolen[e.victim]++
	if len(r.log[node]) == 0 {
		return 0, false
	}
	return r.log[node][0].clock + r.stolen[node], true
}

// postsRun is the outcome of driving one scheduler through per-node
// scripts: the node of every grant step in order, and whether the run
// ended in the deadlock callback.
type postsRun struct {
	grants   []int
	deadlock bool
}

// runPosts drives p nodes, each through its own slice of script, with
// scheduling points of two kinds: real ones (yield, block, wake a Blocked
// node, exit) and handler entries.  With runAhead a handler entry is a Post
// — the node runs on and drains its log before every real call and
// whenever the log is full; without, it is the Yield that Post stands for,
// its effect applied on the spot.  A node's script position depends only on
// its own history, as a node's access stream does, so the two modes must
// produce the same grant sequence, grant step for grant step.
func runPosts(t *testing.T, p int, seed uint64, script []byte, runAhead bool) postsRun {
	t.Helper()
	var (
		s     = New(p, seed)
		ring  = newPostRing(p, 4)
		res   postsRun
		state = make([]State, p) // written by the token holder only
	)
	s.OnDeadlock(func() { res.deadlock = true })
	// granted records one grant step, wherever it was made: by the token
	// holder right after its grant, or by dispatch as it applies a post.
	granted := func(node int) {
		if g := s.step - 1; g != len(res.grants) {
			t.Errorf("node %d: granted at step %d, observed as grant %d", node, g, len(res.grants))
		}
		res.grants = append(res.grants, node)
	}
	if runAhead {
		ring.applied = granted
		s.SetRunAhead(ring.apply)
	}
	drain := func(id int) {
		if len(ring.log[id]) > 0 {
			s.Drain(id)
		}
	}
	per := len(script) / p
	// hold is a node's body; it returns when the node exits or is unwound,
	// left Blocked by a deadlock.
	hold := func(id int) {
		granted(id)
		ops := script[id*per : (id+1)*per]
		for pc := 0; ; pc++ {
			op := byte(15)
			if pc < len(ops) {
				op = ops[pc]
			}
			arg := int(op >> 4)
			switch op & 15 {
			default: // a handler entry (ten of the sixteen codes)
				ring.local[id] += int64(arg & 3)
				e := post{clock: ring.local[id], victim: (id + 1 + arg>>2) % p}
				if !runAhead {
					s.Yield(id, e.clock+ring.stolen[id])
					granted(id)
					ring.stolen[e.victim]++
					continue
				}
				if len(ring.log[id]) == ring.capacity {
					drain(id)
				}
				ring.log[id] = append(ring.log[id], e)
				if len(ring.log[id]) == 1 {
					s.Post(id, e.clock+ring.stolen[id])
				}
			case 10, 11: // yield
				drain(id)
				ring.local[id] += int64(arg & 3)
				s.Yield(id, ring.local[id]+ring.stolen[id])
				granted(id)
			case 12: // block
				drain(id)
				state[id] = Blocked
				if !s.Block(id) {
					return
				}
				granted(id)
			case 13: // wake a Blocked node
				drain(id)
				var ids []int
				for v, st := range state {
					if st == Blocked {
						ids = append(ids, v)
					}
				}
				if len(ids) > 0 {
					v := ids[arg%len(ids)]
					state[v] = Ready
					ring.local[v] += int64(arg >> 2)
					s.SetReadyAt(v, ring.local[v]+ring.stolen[v])
				}
			case 14: // a drain point that is not a scheduling point
				drain(id)
			case 15: // exit; whoever leaves wakes the Blocked
				drain(id)
				for v, st := range state {
					if st == Blocked {
						state[v] = Ready
						s.SetReadyAt(v, ring.local[v]+ring.stolen[v])
					}
				}
				state[id] = Done
				return
			}
		}
	}
	s.Run(hold)
	if st := s.Stats(); st.Grants != int64(len(res.grants)) || (!runAhead && st.Applies != 0) {
		t.Errorf("P=%d seed=%d runAhead=%v: Stats %+v after %d observed grants", p, seed, runAhead, st, len(res.grants))
	}
	return res
}

// checkPosts fails the test unless run-ahead granted exactly as the
// scheduler that yields at every post.  TestRunQueueMatchesSortedReference
// and FuzzRunQueue feed it the scripts they feed checkOps, read with the
// op codes of runPosts.
func checkPosts(t *testing.T, p int, seed uint64, script []byte) {
	t.Helper()
	ahead := runPosts(t, p, seed, script, true)
	ref := runPosts(t, p, seed, script, false)
	if !slices.Equal(ahead.grants, ref.grants) {
		i := 0
		for i < len(ahead.grants) && i < len(ref.grants) && ahead.grants[i] == ref.grants[i] {
			i++
		}
		t.Fatalf("P=%d seed=%d: run-ahead diverges from yield-at-every-post at grant %d of %d/%d\n script %v",
			p, seed, i, len(ahead.grants), len(ref.grants), script)
	}
	if ahead.deadlock != ref.deadlock {
		t.Fatalf("P=%d seed=%d: deadlock fired=%v with run-ahead, %v without (script %v)",
			p, seed, ahead.deadlock, ref.deadlock, script)
	}
}

// TestPostFailureBelongsToThePoster: a panic inside the ApplyFunc surfaces
// in the scheduling call driving dispatch — here node 1's Drain, applying
// node 0's post while node 0 is parked in its own; the scheduler must charge
// it to node 0, poison itself, and unwind node 0.
func TestPostFailureBelongsToThePoster(t *testing.T) {
	boom := errors.New("boom")
	s := New(2, 0)
	applier, driving := -1, -1
	s.SetRunAhead(func(node int) (int64, bool) {
		applier = driving
		panic(boom)
	})
	drained := [2]bool{true, true}
	s.Run(func(id int) {
		s.Post(id, int64(10+10*id)) // node 0 parks first; its post sorts first
		driving = id
		drained[id] = s.Drain(id)
	})
	if !s.poisoned.Load() || drained != [2]bool{} {
		t.Fatalf("a failed apply must poison the scheduler and fail both drains: poisoned=%v drained=%v",
			s.poisoned.Load(), drained)
	}
	if got := applier; got != 1 {
		t.Fatalf("node 0's post was applied inside node %d's Drain, want node 1's", got)
	}
	if got := s.PostFailure(0); got != boom {
		t.Fatalf("PostFailure(0) = %v, want %v", got, boom)
	}
	if got := s.PostFailure(1); got != nil {
		t.Fatalf("PostFailure(1) = %v, want nil", got)
	}
}

// TestRunAheadGuards: run-ahead cannot be combined with anything that needs
// every scheduling point to be a real one.
func TestRunAheadGuards(t *testing.T) {
	apply := func(int) (int64, bool) { return 0, false }
	for name, prep := range map[string]func(*Scheduler){
		"chooser":   func(s *Scheduler) { s.SetChooser(func(int, []Candidate) int { return 0 }) },
		"observer":  func(s *Scheduler) { s.SetObserver(func(int) {}) },
		"recording": func(s *Scheduler) { s.EnableRecording() },
	} {
		s := New(2, 0)
		prep(s)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetRunAhead after %s did not panic", name)
				}
			}()
			s.SetRunAhead(apply)
		}()
	}
}

// phaseLog is the cheapest possible post log: node's posts are ten cycles
// apart, so a count of pending ones and the clock of the newest say it all.
type phaseLog struct {
	pending []int
	clock   []int64
}

func newPhaseLog(p int) *phaseLog {
	return &phaseLog{pending: make([]int, p), clock: make([]int64, p)}
}

func (l *phaseLog) apply(node int) (int64, bool) {
	l.pending[node]--
	return l.clock[node] - int64(10*(l.pending[node]-1)), l.pending[node] > 0
}

// phase posts batch scheduling points of node and drains: the shape of a
// parallel phase under run-ahead.
func (l *phaseLog) phase(s *Scheduler, node, batch int) {
	for i := 0; i < batch; i++ {
		l.clock[node] += 10
		l.pending[node]++
		if l.pending[node] == 1 {
			s.Post(node, l.clock[node])
		}
	}
	s.Drain(node)
}

// TestPostDoesNotAllocate: a deferred scheduling point allocates nothing —
// not when it is posted, not when it is applied, not when its node drains
// and the token moves.  Node 0 measures; AllocsPerRun counts the mallocs of
// the whole process.
func TestPostDoesNotAllocate(t *testing.T) {
	for _, p := range []int{1, 2, 32} {
		for _, seed := range []uint64{0, 1} {
			s := New(p, seed)
			log := newPhaseLog(p)
			s.SetRunAhead(log.apply)
			stop, allocs := false, 0.0
			s.Run(func(node int) {
				if node != 0 {
					for !stop {
						log.phase(s, node, 8)
					}
					return
				}
				allocs = testing.AllocsPerRun(200, func() { log.phase(s, 0, 8) })
				stop = true
			})
			if allocs != 0 {
				t.Errorf("P=%d seed=%d: %.2f allocs per phase of 8 posts and a drain, want 0", p, seed, allocs)
			}
		}
	}
}
