package cstar

import (
	"testing"
	"testing/quick"

	"lcm/internal/core"
	"lcm/internal/cost"
	"lcm/internal/memsys"
	"lcm/internal/tempest"
)

// Section 7.1 argues RSM reductions shine exactly where compiler analysis
// fails: reductions through computed subscripts ("A[f(i)] = A[f(i)] + c")
// or over pointer-based structures.  These tests build a histogram with an
// arbitrary hash as f: every node scatters increments across the whole
// bucket array, buckets collide freely across nodes and within blocks, and
// the reduction-policy region must still produce the exact counts with no
// per-node privatization code.

func hashBucket(i, buckets int) int {
	x := uint64(i) * 11400714819323198485
	return int(x>>33) % buckets
}

func TestIrregularHistogramReduction(t *testing.T) {
	const (
		p       = 8
		buckets = 64
		items   = 10_000
	)
	m := NewMachine(p, 32, cost.Default(), LCMmcc)
	hist := NewVectorI64(m, "hist", buckets, core.Reduction(core.SumI64{}), memsys.Interleaved)
	m.Freeze()

	m.Run(func(n *tempest.Node) {
		lo, hi := (StaticSchedule{}).Range(n.ID, p, 0, items)
		for i := lo; i < hi; i++ {
			b := hashBucket(i, buckets)
			// The C** reduction assignment: hist[f(i)] %+= 1.
			hist.Set(n, b, hist.Get(n, b)+1)
		}
		n.ReconcileCopies()
	})

	want := make([]int64, buckets)
	for i := 0; i < items; i++ {
		want[hashBucket(i, buckets)]++
	}
	var total int64
	for b := 0; b < buckets; b++ {
		got := hist.Peek(b)
		if got != want[b] {
			t.Fatalf("bucket %d = %d, want %d", b, got, want[b])
		}
		total += got
	}
	if total != items {
		t.Fatalf("total %d, want %d", total, items)
	}
	// Cross-node writes to shared buckets are contributions, not
	// conflicts.
	if c := m.Shared.WriteConflicts; c != 0 {
		t.Fatalf("reduction reported %d conflicts", c)
	}
}

// Property: the reduction histogram is exact for any item->bucket mapping
// and any number of reconcile phases splitting the work.
func TestHistogramReductionProperty(t *testing.T) {
	f := func(assign []uint8, phases8 uint8) bool {
		if len(assign) == 0 {
			return true
		}
		if len(assign) > 400 {
			assign = assign[:400]
		}
		const p, buckets = 4, 16
		phases := int(phases8)%3 + 1
		m := NewMachine(p, 32, cost.Zero(), LCMscc)
		hist := NewVectorI64(m, "hist", buckets, core.Reduction(core.SumI64{}), memsys.Interleaved)
		m.Freeze()
		m.Run(func(n *tempest.Node) {
			for ph := 0; ph < phases; ph++ {
				for i, a := range assign {
					if i%p != n.ID || i%phases != ph {
						continue
					}
					b := int(a) % buckets
					hist.Set(n, b, hist.Get(n, b)+1)
				}
				n.ReconcileCopies()
			}
		})
		want := make([]int64, buckets)
		for _, a := range assign {
			want[int(a)%buckets]++
		}
		for b := 0; b < buckets; b++ {
			if hist.Peek(b) != want[b] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramMinMaxReductions exercises the non-additive reconcilers on
// the same irregular pattern.
func TestHistogramMinMaxReductions(t *testing.T) {
	const p, slots, items = 4, 8, 500
	m := NewMachine(p, 32, cost.Zero(), LCMmcc)
	lows := NewVectorF64(m, "lows", slots, core.Reduction(core.MinF64{}), memsys.Interleaved)
	highs := NewVectorF64(m, "highs", slots, core.Reduction(core.MaxF64{}), memsys.Interleaved)
	m.Freeze()
	for s := 0; s < slots; s++ {
		lows.Poke(s, 1e18)
		highs.Poke(s, -1e18)
	}
	val := func(i int) float64 { return float64((i*2654435761)%10_000) - 5_000 }
	m.Run(func(n *tempest.Node) {
		lo, hi := (StaticSchedule{}).Range(n.ID, p, 0, items)
		for i := lo; i < hi; i++ {
			s := hashBucket(i, slots)
			if v := val(i); v < lows.Get(n, s) {
				lows.Set(n, s, v)
			}
			if v := val(i); v > highs.Get(n, s) {
				highs.Set(n, s, v)
			}
		}
		n.ReconcileCopies()
	})
	wantLo := make([]float64, slots)
	wantHi := make([]float64, slots)
	for s := range wantLo {
		wantLo[s], wantHi[s] = 1e18, -1e18
	}
	for i := 0; i < items; i++ {
		s := hashBucket(i, slots)
		if v := val(i); v < wantLo[s] {
			wantLo[s] = v
		}
		if v := val(i); v > wantHi[s] {
			wantHi[s] = v
		}
	}
	for s := 0; s < slots; s++ {
		if lows.Peek(s) != wantLo[s] || highs.Peek(s) != wantHi[s] {
			t.Fatalf("slot %d: min %v/%v max %v/%v", s,
				lows.Peek(s), wantLo[s], highs.Peek(s), wantHi[s])
		}
	}
}
