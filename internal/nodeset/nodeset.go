// Package nodeset provides the copyset representation shared by the
// coherence directories: a set of node IDs with an inline single-word
// fast path for machines of at most 64 nodes and a multi-word bitset
// spill beyond that.
//
// The directories (internal/core, internal/stache) keep one sharer set
// per block plus per-phase reader/writer sets, so the representation is
// chosen for their access pattern rather than for generality:
//
//   - Machines with P <= 64 — every historical configuration — live
//     entirely in the inline word.  Add/Remove/Contains/Count compile to
//     the same mask arithmetic the old flat uint64 bitmasks used, and a
//     Set costs no heap allocation at all.
//   - Larger machines spill IDs >= 64 into []uint64 words.  Directory-
//     resident sets carve their spill storage from an Arena (one chunked
//     allocation per directory, the idiom of tempest's line arenas), so
//     steady-state protocol execution stays allocation-free at any P.
//
// Iteration (Iter) visits members in ascending ID order by popping bits
// with TrailingZeros64 and skipping empty words, which keeps the
// invalidation fan-out and invariant-audit loops O(members + words)
// instead of O(P).  Ascending order is load-bearing: the order of
// invalidation charges is a simulation observable, and it must replay
// the historical uint64 iteration exactly.
package nodeset

import (
	"math/bits"
	"strconv"
)

// wordBits is the capacity of the inline word: IDs 0..63 need no spill.
const wordBits = 64

// Set is a set of small non-negative node IDs.  The zero value is an
// empty set ready for use; Add grows spill storage on demand.  Sets that
// live in a directory should instead be created by an Arena so their
// spill words are pre-sized and pooled.
//
// IDs 0..63 live in the inline word lo; ID i >= 64 lives in bit i%64 of
// (*spill)[i/64-1].  The spill words are behind a pointer, so a Set is two
// words and a directory entry that holds several keeps their inline words
// close together.  Methods taking a second set accept any spill length on
// either side; missing words read as zero.
type Set struct {
	lo    uint64
	spill *[]uint64
}

// words returns the spill words, nil if there are none.
func (s *Set) words() []uint64 {
	if s.spill == nil {
		return nil
	}
	return *s.spill
}

// Of returns a set holding the given IDs (a test convenience).
func Of(ids ...int) Set {
	var s Set
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// Add inserts id, growing spill storage if needed.  id must be >= 0.
func (s *Set) Add(id int) {
	if id < wordBits {
		s.lo |= 1 << uint(id)
		return
	}
	w := id/wordBits - 1
	if s.spill == nil {
		s.spill = new([]uint64)
	}
	if sp := *s.spill; w >= len(sp) {
		grown := make([]uint64, w+1)
		copy(grown, sp)
		*s.spill = grown
	}
	(*s.spill)[w] |= 1 << (uint(id) % wordBits)
}

// Remove deletes id; removing an absent id is a no-op.
func (s *Set) Remove(id int) {
	if id < wordBits {
		s.lo &^= 1 << uint(id)
		return
	}
	if sp, w := s.words(), id/wordBits-1; w < len(sp) {
		sp[w] &^= 1 << (uint(id) % wordBits)
	}
}

// Contains reports whether id is a member.
func (s *Set) Contains(id int) bool {
	if id < wordBits {
		return s.lo&(1<<uint(id)) != 0
	}
	sp, w := s.words(), id/wordBits-1
	return w < len(sp) && sp[w]&(1<<(uint(id)%wordBits)) != 0
}

// Count returns the number of members (popcount over all words).
func (s *Set) Count() int {
	c := bits.OnesCount64(s.lo)
	for _, w := range s.words() {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no members.
func (s *Set) Empty() bool {
	if s.lo != 0 {
		return false
	}
	for _, w := range s.words() {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear removes all members, keeping spill storage for reuse.
func (s *Set) Clear() {
	s.lo = 0
	if s.spill != nil {
		clear(*s.spill)
	}
}

// SubsetOf reports whether every member of s is also in o.
func (s *Set) SubsetOf(o *Set) bool {
	olo := o.lo
	if s.lo&^olo != 0 {
		return false
	}
	osp := o.words()
	for i, w := range s.words() {
		var ow uint64
		if i < len(osp) {
			ow = osp[i]
		}
		if w&^ow != 0 {
			return false
		}
	}
	return true
}

// Subtract removes every member of o from s in place.
func (s *Set) Subtract(o *Set) {
	s.lo &^= o.lo
	sp, osp := s.words(), o.words()
	n := min(len(sp), len(osp))
	for i := 0; i < n; i++ {
		sp[i] &^= osp[i]
	}
}

// Clone returns an independent copy of s.  Cold paths only (the conflict
// log); directory hot paths never clone.
func (s *Set) Clone() Set {
	c := Set{lo: s.lo}
	if sp := s.words(); len(sp) > 0 {
		cp := make([]uint64, len(sp))
		copy(cp, sp)
		c.spill = &cp
	}
	return c
}

// Low64 returns the inline word covering IDs 0..63.  Test helpers on
// small machines compare directory masks against literals through this.
func (s *Set) Low64() uint64 { return s.lo }

// Members returns the IDs in ascending order (a test convenience).
func (s *Set) Members() []int {
	out := make([]int, 0, s.Count())
	for it := s.Iter(); ; {
		id, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, id)
	}
}

// String renders the members like "{0,2,65}".
func (s Set) String() string {
	b := []byte{'{'}
	first := true
	for it := s.Iter(); ; {
		id, ok := it.Next()
		if !ok {
			break
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return string(append(b, '}'))
}

// Iter iterates the members of a Set in ascending ID order, skipping
// empty words.  Each word is copied into the iterator before its bits
// are popped, so removing the member just returned (or any member at or
// below it) during iteration is safe and does not perturb the sequence —
// the reconcile invalidation loop relies on this to drop sharers while
// walking them.
type Iter struct {
	cur   uint64
	base  int
	next  int
	spill []uint64
}

// Iter returns an iterator positioned before the first member.
func (s *Set) Iter() Iter { return Iter{cur: s.lo, spill: s.words()} }

// Next returns the next member in ascending order, or (-1, false) when
// the set is exhausted.
func (it *Iter) Next() (int, bool) {
	for it.cur == 0 {
		if it.next >= len(it.spill) {
			return -1, false
		}
		it.cur = it.spill[it.next]
		it.next++
		it.base = it.next * wordBits
	}
	id := it.base + bits.TrailingZeros64(it.cur)
	it.cur &= it.cur - 1
	return id, true
}

// arenaChunkSets is how many sets' spill storage one backing chunk
// holds; mirrors tempest's lineArenaChunk sizing.
const arenaChunkSets = 256

// Arena carves the spill words of directory-resident sets from chunked
// backing storage: one Go allocation per chunk instead of one per set,
// the same idiom as tempest's per-node line and data arenas.  For
// machines with P <= 64 the spill width is zero and Make returns the
// inline-only zero Set without touching the arena at all.
type Arena struct {
	words int
	buf   []uint64
	hdrs  [][]uint64 // the sets' spill slices, carved like buf
}

// NewArena returns an arena producing sets pre-sized for IDs in
// [0, maxID].
func NewArena(maxID int) *Arena { return &Arena{words: max(maxID, 0) / wordBits} }

// Words returns the spill width of the sets this arena produces.
func (a *Arena) Words() int { return a.words }

// Make returns an empty set whose spill storage (if any) is carved from
// the arena.  The full-length slice expression caps the slice so a
// stray append can never bleed into a neighboring set's words.
func (a *Arena) Make() Set {
	if a.words == 0 {
		return Set{}
	}
	if len(a.buf) < a.words {
		a.buf = make([]uint64, a.words*arenaChunkSets)
		a.hdrs = make([][]uint64, arenaChunkSets)
	}
	sp := &a.hdrs[0]
	*sp = a.buf[:a.words:a.words]
	a.buf, a.hdrs = a.buf[a.words:], a.hdrs[1:]
	return Set{spill: sp}
}
