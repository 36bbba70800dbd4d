package sched

import "math/bits"

// rqEntry is a Ready node's key in the run queue.  The tie-break hash is
// computed once, when the entry is built, so a comparison is three integer
// subtractions whatever the seed.
type rqEntry struct {
	clock int64
	hash  uint64 // mix(seed, node, seq); 0 for every entry under seed 0
	node  int32
}

// before is Order restricted to run-queue entries: node IDs are unique
// among them, so Order's final Seq comparison is unreachable, and under
// seed 0 every hash is 0, which skips the hash step exactly as Order does.
func (a rqEntry) before(b rqEntry) bool { return a.less(b) != 0 }

// less is before as a 0/1 integer: (clock, hash, node) compared as one
// multi-word number by the borrow out of a − b, so that a sift, whose
// comparisons are coin flips to a branch predictor, has none to mispredict.
func (a rqEntry) less(b rqEntry) uint64 {
	const sign = 1 << 63 // orders a signed clock as an unsigned word
	_, borrow := bits.Sub64(uint64(a.node), uint64(b.node), 0)
	_, borrow = bits.Sub64(a.hash, b.hash, borrow)
	_, borrow = bits.Sub64(uint64(a.clock)^sign, uint64(b.clock)^sign, borrow)
	return borrow
}

// runQueue is an indexed binary min-heap of the Ready nodes under before.
// pos[node] is the node's index in h, or -1 while it is not queued, so a
// node that is not the minimum (one that exits while Ready, or the
// Chooser's pick) can be removed in O(log P).
type runQueue struct {
	h   []rqEntry
	pos []int32
}

func newRunQueue(n int) runQueue {
	q := runQueue{h: make([]rqEntry, 0, n), pos: make([]int32, n)}
	for i := range q.pos {
		q.pos[i] = -1
	}
	return q
}

func (q *runQueue) len() int { return len(q.h) }

// min returns the Order-minimum entry; the queue must not be empty.
func (q *runQueue) min() rqEntry { return q.h[0] }

func (q *runQueue) push(e rqEntry) {
	q.h = append(q.h, e)
	q.up(len(q.h)-1, e)
}

// popMin removes and returns the minimum; the queue must not be empty.
func (q *runQueue) popMin() rqEntry {
	top := q.h[0]
	q.remove(int(top.node))
	return top
}

// replaceMin removes and returns the minimum and inserts e, in one sift;
// the queue must not be empty.
func (q *runQueue) replaceMin(e rqEntry) rqEntry {
	top := q.h[0]
	q.pos[top.node] = -1
	q.down(0, e)
	return top
}

// remove takes node's entry out of the queue, wherever it sits.
func (q *runQueue) remove(node int) {
	i := int(q.pos[node])
	q.pos[node] = -1
	last := len(q.h) - 1
	e := q.h[last]
	q.h = q.h[:last]
	if i == last {
		return
	}
	if i > 0 && e.before(q.h[(i-1)/2]) {
		q.up(i, e)
	} else {
		q.down(i, e)
	}
}

// up places e at or above the hole at index i.
func (q *runQueue) up(i int, e rqEntry) {
	h := q.h
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		q.pos[h[i].node] = int32(i)
		i = p
	}
	h[i] = e
	q.pos[e.node] = int32(i)
}

// down places e at or below the hole at index i.
func (q *runQueue) down(i int, e rqEntry) {
	h := q.h
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) {
			c += int(h[r].less(h[c]))
		}
		if !h[c].before(e) {
			break
		}
		h[i] = h[c]
		q.pos[h[i].node] = int32(i)
		i = c
	}
	h[i] = e
	q.pos[e.node] = int32(i)
}
