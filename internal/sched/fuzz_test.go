package sched

import (
	"encoding/binary"
	"testing"
)

// FuzzTieBreak checks that Order is a strict total order — irreflexive,
// antisymmetric, transitive — for arbitrary seeds and candidate sets.  The
// scheduler's determinism rests entirely on this: sort.Slice over a
// non-total "order" is host-dependent, which is exactly the bug class this
// package exists to remove.
//
// The input encodes a seed followed by up to 16 candidates as
// (clock, node, seq) triples; node IDs are forced distinct, as they are in
// the run queue (one entry per Ready node).
func FuzzTieBreak(f *testing.F) {
	// Seed corpus: canonical order, a hash seed, same-clock ties, and
	// clock/seq extremes.
	f.Add(uint64(0), []byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint64(1), []byte{5, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint64(0xdeadbeef), []byte{255, 255, 255, 255, 255, 255, 255, 127})
	f.Add(uint64(42), make([]byte, 16*8))
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte) {
		var cands []Candidate
		for i := 0; i+8 <= len(raw) && len(cands) < 16; i += 8 {
			v := binary.LittleEndian.Uint64(raw[i:])
			cands = append(cands, Candidate{
				Node:  len(cands), // distinct, like the run queue
				Clock: int64(v >> 16),
				Seq:   v & 0xffff,
			})
		}
		for i := range cands {
			if Order(seed, cands[i], cands[i]) {
				t.Fatalf("seed %#x: candidate %d ordered before itself", seed, i)
			}
			for j := range cands {
				if i == j {
					continue
				}
				ab := Order(seed, cands[i], cands[j])
				ba := Order(seed, cands[j], cands[i])
				if ab == ba {
					t.Fatalf("seed %#x: candidates %d,%d not antisymmetric/total: ab=%v ba=%v (%+v vs %+v)",
						seed, i, j, ab, ba, cands[i], cands[j])
				}
				if !ab {
					continue
				}
				for k := range cands {
					if k == i || k == j {
						continue
					}
					// a < b && b < c must imply a < c.
					if Order(seed, cands[j], cands[k]) && !Order(seed, cands[i], cands[k]) {
						t.Fatalf("seed %#x: order not transitive over %d,%d,%d", seed, i, j, k)
					}
				}
			}
		}
	})
}

// FuzzRunQueue feeds the differential driver of runqueue_test.go fuzzed op
// scripts: whatever sequence of Yield / Block / SetReadyAt / Exit the
// script spells (Exit of Ready and of Blocked nodes included), the heap
// must grant exactly the node a per-step Order sort of the Ready set
// would, fire the deadlock callback exactly when that set runs dry with a
// node still Blocked, and offer a Chooser the full sorted set.  Read as
// per-node streams of Post / Drain / Yield / Block (runPosts), the same
// script must grant identically with run-ahead and without.
func FuzzRunQueue(f *testing.F) {
	f.Add(uint64(0), uint8(0), []byte{0, 16, 32})                      // P=1: in-place re-grants
	f.Add(uint64(0), uint8(1), []byte{10, 0, 12, 16, 15})              // block, wake, exit
	f.Add(uint64(1), uint8(2), []byte{0, 0, 0, 14, 30, 10, 10, 12, 0}) // exit-other of Ready and Blocked
	f.Add(uint64(42), uint8(3), make([]byte, 300))                     // all ties, hashed
	f.Add(uint64(0xdeadbeef), uint8(2), []byte{10, 10, 10, 10, 11, 11, 11, 11})
	f.Add(uint64(7), uint8(1), []byte{1, 2, 3, 4, 5, 26, 12, 7, 1, 2, 14, 13, 3, 10, 4, 5}) // posts past the ring, yield after post, block and wake
	f.Fuzz(func(t *testing.T, seed uint64, size uint8, script []byte) {
		if len(script) > 1024 {
			script = script[:1024]
		}
		p := []int{1, 2, 33, 65}[size%4]
		checkOps(t, p, seed, script, false)
		checkOps(t, p, seed, script, true)
		checkPosts(t, p, seed, script)
	})
}
