package sched

import (
	"math"
	"math/bits"
)

// rqEntry is a run-queue entry: a Ready node's key or, under run-ahead, the
// key of a node's oldest post.  The tie-break hash is computed once, when the
// entry is built, so a comparison is a subtraction or two whatever the seed.
// An entry is four words, 32 bytes, so that two siblings of the tree share
// one cache line and a replay touches a line per level.  (Four fields keep
// it in registers: a fifth, padding field measured twice as slow.)
type rqEntry struct {
	clock int64
	hash  uint64 // mix(seed, node, seq); 0 for every entry under seed 0
	node  int64
	post  uint64 // 1 for a post, 0 for a Ready node: not part of the key
}

// vacant is the key of an empty slot: after every real entry under before,
// since no real entry has node math.MaxInt64.
var vacant = rqEntry{clock: math.MaxInt64, hash: math.MaxUint64, node: math.MaxInt64}

// before is Order restricted to run-queue entries: node IDs are unique
// among them, so Order's final Seq comparison is unreachable, and under
// seed 0 every hash is 0, which skips the hash step exactly as Order does.
func (a rqEntry) before(b rqEntry) bool { return a.less(b) != 0 }

// less is before as a 0/1 integer, the borrow out of a − b with the key
// read as one multi-word number, so that it has no branch to mispredict
// but the test for a tie of clocks, which few comparisons are: distinct
// clocks decide by the clock word alone, a tie by (hash, node).
func (a rqEntry) less(b rqEntry) uint64 {
	const sign = 1 << 63 // orders a signed clock as an unsigned word
	if a.clock == b.clock {
		_, borrow := bits.Sub64(uint64(a.node), uint64(b.node), 0)
		_, borrow = bits.Sub64(a.hash, b.hash, borrow)
		return borrow
	}
	_, borrow := bits.Sub64(uint64(a.clock)^sign, uint64(b.clock)^sign, 0)
	return borrow
}

// runQueue is a winner tree over slots: a complete binary tree whose leaves
// are the slots, each holding one entry or vacant, and whose every inner node
// holds a copy of the minimum of its subtree, so the root is the minimum.
// Changing one slot replays the path from its leaf to the root — log₂ of the
// slot count comparisons, each against the sibling's winner read inline —
// and nothing else moves.  A replace-top writes the new entry into the
// minimum's slot and replays that one path, which is the common hand-off;
// pos[node] is the node's slot, or -1 while it is not queued, so a node
// that is not the minimum (one that exits while Ready, or the Chooser's
// pick) can be removed in one replay too.
type runQueue struct {
	t      []rqEntry // t[1] is the root; slot s is leaf t[leaves+s]
	leaves int       // a power of two, at least the node count
	pos    []int32
	free   []int32 // the vacant slots, a stack
}

func newRunQueue(n int) runQueue {
	leaves := 1
	for leaves < n {
		leaves <<= 1
	}
	q := runQueue{t: make([]rqEntry, 2*leaves), leaves: leaves, pos: make([]int32, n), free: make([]int32, leaves)}
	for i := range q.t {
		q.t[i] = vacant
	}
	for i := range q.pos {
		q.pos[i] = -1
	}
	for i := range q.free {
		q.free[i] = int32(leaves - 1 - i) // slot 0 is taken first
	}
	return q
}

func (q *runQueue) len() int { return q.leaves - len(q.free) }

// min returns the Order-minimum entry: vacant if the queue is empty.
func (q *runQueue) min() rqEntry { return q.t[1] }

// queued reports whether node has an entry in the queue.
func (q *runQueue) queued(node int) bool { return q.pos[node] >= 0 }

// push enters e, whose node is not queued, into a vacant slot.
func (q *runQueue) push(e rqEntry) {
	last := len(q.free) - 1
	s := q.free[last]
	q.free = q.free[:last]
	q.pos[e.node] = s
	q.replay(s, e)
}

// popMin removes the minimum; the queue must not be empty.
func (q *runQueue) popMin() { q.remove(int(q.t[1].node)) }

// replaceMin puts e in the minimum's slot, which the minimum leaves, in one
// replay; the queue must not be empty, and e's node is either the
// minimum's or not queued.
func (q *runQueue) replaceMin(e rqEntry) {
	top := q.t[1].node
	s := q.pos[top]
	q.pos[top] = -1
	q.pos[e.node] = s
	q.replay(s, e)
}

// remove takes node's entry out of the queue, wherever it sits.
func (q *runQueue) remove(node int) {
	s := q.pos[node]
	q.pos[node] = -1
	q.free = append(q.free, s)
	q.replay(s, vacant)
}

// replay writes e into slot s and recomputes the winners on the path from
// its leaf to the root.  The climbing winner stays in registers: at each
// level it is replaced by the sibling's winner when that sibling is before
// it.  (Written as a branch, the select compiles to conditional moves;
// spelled out with masks it measured slower, on BenchmarkPostApply and on
// lcm-miss alike.)
func (q *runQueue) replay(s int32, e rqEntry) {
	t := q.t
	i := q.leaves + int(s)
	t[i] = e
	for i > 1 {
		if sib := t[i^1]; sib.less(e) != 0 {
			e = sib
		}
		i >>= 1
		t[i] = e
	}
}
