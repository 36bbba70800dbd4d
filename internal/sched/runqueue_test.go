package sched

import (
	"slices"
	"sort"
	"testing"
)

// opsRun is the outcome of driving one scheduler through an op script.
type opsRun struct {
	got, want       []int // grant sequence: observed, and by the reference
	deadlock, wantD bool  // OnDeadlock fired / the reference says it must
	offers          int   // Chooser calls (chooser mode only)
}

// runOps drives a scheduler of p nodes through a script of scheduling
// calls and checks it, grant by grant, against a
// reference model that keeps the Ready set in a plain slice and sorts it
// with Order at every step.  The token holder interprets the script (one
// byte per op) and performs
//
//	yield        its clock advances by 0..3, so ties are the common case
//	block        parks until somebody readies it
//	setReadyAt   readies some Blocked node, at a clock of the script's choice
//	exit-other   exit of some Ready or Blocked node, which never runs again
//	exit-self
//
// and once the script runs out every node exits, readying the Blocked ones
// first, so a run ends in a deadlock only if the script blocked the last
// runnable node.  With chooser set, a
// Chooser that always picks index 0 is installed and must be offered the
// reference's sorted Ready set at every decision.
func runOps(t *testing.T, p int, seed uint64, script []byte, chooser bool) opsRun {
	t.Helper()
	type model struct {
		state State
		clock int64
		seq   uint64
	}
	var (
		s     = New(p, seed)
		nodes = make([]model, p) // the reference; written by the token holder only
		res   opsRun
	)
	ready := func() []Candidate { // the reference run queue: sort the Ready set
		var cs []Candidate
		for i, n := range nodes {
			if n.state == Ready {
				cs = append(cs, Candidate{Node: i, Clock: n.clock, Seq: n.seq})
			}
		}
		sort.Slice(cs, func(i, j int) bool { return Order(seed, cs[i], cs[j]) })
		return cs
	}
	// expect applies a grant decision to the reference and reports whether
	// a node was granted: the Order-minimum runs next; with nothing Ready
	// the run is over, by deadlock if some node is still Blocked.
	var offered []Candidate // the Ready set the last decision was made from
	expect := func() bool {
		offered = ready()
		if len(offered) == 0 {
			for _, n := range nodes {
				if n.state == Blocked {
					res.wantD = true
				}
			}
			return false
		}
		nodes[offered[0].Node].state = Running
		res.want = append(res.want, offered[0].Node)
		return true
	}
	// pick returns the k-th node (mod the count) among those in a wanted
	// state, other than self; -1 if there is none.
	pick := func(self int, k byte, want func(State) bool) int {
		var ids []int
		for i, n := range nodes {
			if i != self && want(n.state) {
				ids = append(ids, i)
			}
		}
		if len(ids) == 0 {
			return -1
		}
		return ids[int(k)%len(ids)]
	}
	isBlocked := func(st State) bool { return st == Blocked }
	s.OnDeadlock(func() { res.deadlock = true })
	if chooser {
		s.SetChooser(func(step int, cands []Candidate) int {
			res.offers++
			if !slices.Equal(cands, offered) {
				t.Errorf("step %d: chooser offered %v, reference Ready set is %v", step, cands, offered)
			}
			return 0
		})
	}
	pc := 0
	// hold is what a node does with the token, from its first grant on; it
	// returns when the node has exited or been unwound: exited by a peer
	// while parked, or left Blocked by a deadlock.
	hold := func(id int) {
		me := &nodes[id]
		for granted := true; granted; {
			if g := s.Steps() - 1; g != len(res.got) {
				t.Errorf("node %d granted at step %d, observed as grant %d", id, g, len(res.got))
			}
			res.got = append(res.got, id)
			for { // ops performed on one grant
				op := byte(15) // script exhausted: exit, the last to leave readying the Blocked
				if pc < len(script) {
					op = script[pc]
					pc++
				} else if len(ready()) == 0 && pick(id, 0, isBlocked) >= 0 {
					op = 12
				}
				arg := op >> 4
				switch op & 15 {
				default: // yield (ten of the sixteen codes)
					me.clock += int64(arg & 3)
					me.state = Ready
					me.seq++
					expect()
					granted = s.Yield(id, me.clock)
				case 10, 11: // block
					me.state = Blocked
					me.seq++
					expect()
					granted = s.Block(id)
				case 12, 13: // setReadyAt
					if v := pick(id, arg, isBlocked); v >= 0 {
						nodes[v].state = Ready
						nodes[v].clock += int64(arg >> 1)
						nodes[v].seq++
						s.SetReadyAt(v, nodes[v].clock)
					}
					continue
				case 14: // exit a Ready or Blocked node
					if v := pick(id, arg, func(st State) bool { return st == Ready || st == Blocked }); v >= 0 {
						nodes[v].state = Done
						s.exit(v)
					}
					continue
				case 15: // exit
					me.state = Done
					expect()
					return
				}
				break
			}
		}
	}
	expect() // Run's first grant
	s.Run(hold)
	return res
}

// checkOps fails the test unless the run matched the reference.
func checkOps(t *testing.T, p int, seed uint64, script []byte, chooser bool) {
	t.Helper()
	r := runOps(t, p, seed, script, chooser)
	if !slices.Equal(r.got, r.want) {
		t.Fatalf("P=%d seed=%d chooser=%v: grant sequence diverged from the sorted reference\n got  %v\n want %v\n script %v",
			p, seed, chooser, r.got, r.want, script)
	}
	if r.deadlock != r.wantD {
		t.Fatalf("P=%d seed=%d chooser=%v: deadlock callback fired=%v, reference says %v (script %v)",
			p, seed, chooser, r.deadlock, r.wantD, script)
	}
	if chooser && r.offers != len(r.want) {
		t.Fatalf("P=%d seed=%d: chooser consulted %d times for %d grants", p, seed, r.offers, len(r.want))
	}
}

// TestRunQueueMatchesSortedReference is the differential test of the
// heap: random scripts at machine sizes on both sides of the nodeset word
// boundary, canonical and hashed tie-breaks, with and without a Chooser.
// Each script is also read as per-node streams of posts, drains, yields
// after posts, blocks and wake-ups (runPosts in runahead_test.go) and run
// with and without run-ahead, which must not move a grant.
func TestRunQueueMatchesSortedReference(t *testing.T) {
	for _, p := range []int{1, 2, 33, 65} {
		for _, seed := range []uint64{0, 1, 0xdeadbeef} {
			x := seed ^ uint64(p)*0x9e3779b97f4a7c15
			for round := 0; round < 4+64/p; round++ {
				script := make([]byte, 64+16*p)
				for i := range script {
					x = x*6364136223846793005 + 1442695040888963407
					script[i] = byte(x >> 56)
					if round%2 == 0 && script[i]&15 >= 14 {
						script[i] &^= 8 // half the rounds never exit early: long runs
					}
				}
				checkOps(t, p, seed, script, false)
				checkOps(t, p, seed, script, true)
				checkPosts(t, p, seed, script)
			}
		}
	}
}
