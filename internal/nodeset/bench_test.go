package nodeset

import (
	"fmt"
	"testing"
)

// NodeSet microbenchmarks: the directory copyset operations that sit on
// the protocols' hot paths, at machine widths on both sides of the
// 64-bit inline/spill boundary.  "P" is the machine width the set is
// sized for; each set holds every fourth node, the shape of a busy
// sharer mask.
func forNodeSetWidths(b *testing.B, bench func(b *testing.B, p int, s *Set)) {
	for _, p := range []int{8, 64, 256, 1024} {
		ar := NewArena(p - 1)
		s := ar.Make()
		for id := 0; id < p; id += 4 {
			s.Add(id)
		}
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			bench(b, p, &s)
		})
	}
}

func BenchmarkNodeSetMembership(b *testing.B) {
	forNodeSetWidths(b, func(b *testing.B, p int, s *Set) {
		hits := 0
		for i := 0; i < b.N; i++ {
			if s.Contains(i % p) {
				hits++
			}
		}
		if hits == 0 && b.N > 3 {
			b.Fatal("no members seen")
		}
	})
}

func BenchmarkNodeSetFanOut(b *testing.B) {
	// The invalidation fan-out shape: iterate every member, touch it.
	forNodeSetWidths(b, func(b *testing.B, p int, s *Set) {
		sum := 0
		for i := 0; i < b.N; i++ {
			for it := s.Iter(); ; {
				id, ok := it.Next()
				if !ok {
					break
				}
				sum += id
			}
		}
		if sum == 0 && b.N > 0 && p > 4 {
			b.Fatal("empty iteration")
		}
	})
}

func BenchmarkNodeSetPopcount(b *testing.B) {
	forNodeSetWidths(b, func(b *testing.B, p int, s *Set) {
		total := 0
		for i := 0; i < b.N; i++ {
			total += s.Count()
		}
		if total < b.N { // every width holds P/4 >= 2 members
			b.Fatal("bad count")
		}
	})
}

func BenchmarkNodeSetAddRemove(b *testing.B) {
	// The fault-path mutation pair; must stay allocation-free at any P.
	forNodeSetWidths(b, func(b *testing.B, p int, s *Set) {
		for i := 0; i < b.N; i++ {
			id := (i*7 + 1) % p
			s.Add(id)
			s.Remove(id)
		}
	})
}
