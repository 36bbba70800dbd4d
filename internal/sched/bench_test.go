package sched

import (
	"fmt"
	"testing"
)

// The cost of a scheduling point, as testing.B numbers next to lcmperf's
// sched.grant_ns_p2 / sched.grant_ns_p32 probes (bench/probes).  One op is
// one Yield.  Run them on one CPU, as lcmperf runs everything: a run is one
// goroutine's worth of work.
//
//	go test -run '^$' -bench 'Yield|PostApply' -cpu 1 ./internal/sched

// ring passes the token round p nodes with no work between scheduling
// points — every yield hands the token to another node, as every Stache
// fault of the hit-path workload does — until each has yielded the given
// number of times.
func ring(p int, seed uint64, yields int) {
	s := New(p, seed)
	s.Run(func(node int) {
		for i := 1; i <= yields; i++ {
			s.Yield(node, int64(i)*10)
		}
	})
}

func BenchmarkYieldRing(b *testing.B) {
	for _, p := range []int{2, 32, 256} {
		for _, seed := range []uint64{0, 1} {
			b.Run(fmt.Sprintf("P=%d/seed=%d", p, seed), func(b *testing.B) {
				b.ReportAllocs()
				ring(p, seed, (b.N+p-1)/p)
			})
		}
	}
}

// BenchmarkPostApply is the deferred scheduling point: each of p nodes posts
// 64 handler entries and drains, as a node running ahead through a parallel
// phase does, so one op is one Post applied inline by dispatch and 1/64 of
// a drain's two hand-offs.  Compare with YieldRing, where one op
// is one switch.
func BenchmarkPostApply(b *testing.B) {
	const batch = 64
	for _, p := range []int{2, 32, 256} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			s := New(p, 0)
			log := newPhaseLog(p)
			s.SetRunAhead(log.apply)
			phases := (b.N + p*batch - 1) / (p * batch)
			s.Run(func(node int) {
				for i := 0; i < phases; i++ {
					log.phase(s, node, batch)
				}
			})
		})
	}
}

// BenchmarkYieldSelf is the in-place re-grant: node 0 yields while 31
// peers sit in the run queue at a later clock, so it stays the
// Order-minimum and keeps the token.
func BenchmarkYieldSelf(b *testing.B) {
	for _, seed := range []uint64{0, 1} {
		b.Run(fmt.Sprintf("seed=%d", seed), func(b *testing.B) {
			b.ReportAllocs()
			selfYields(32, seed, b.N, b.ResetTimer)
		})
	}
}

// selfYields makes node 0 of p yield n times at clocks below every peer's;
// begin is called once node 0 holds the token for the first time.
func selfYields(p int, seed uint64, n int, begin func()) {
	const far = int64(1) << 60
	s := New(p, seed)
	s.Run(func(node int) {
		if node != 0 {
			s.Yield(node, far)
			return
		}
		s.Yield(0, 1) // every peer, still at clock 0, runs and moves to its far clock
		begin()
		for i := 1; i <= n; i++ {
			s.Yield(0, int64(i)+1)
		}
	})
}

// TestYieldDoesNotAllocate: a scheduling point allocates nothing, whether
// the token moves through the trampoline or stays in place, at any machine
// size and seed.  Node 0 measures, in a ring whose other nodes yield until
// it is done, so one Yield by it is p hand-offs; AllocsPerRun counts the
// mallocs of the whole process.
func TestYieldDoesNotAllocate(t *testing.T) {
	for _, p := range []int{1, 2, 32, 256} {
		for _, seed := range []uint64{0, 1} {
			s := New(p, seed)
			stop, allocs := false, 0.0
			s.Run(func(node int) {
				if node != 0 {
					for clock := int64(10); !stop; clock += 10 {
						s.Yield(node, clock)
					}
					return
				}
				clock := int64(0)
				allocs = testing.AllocsPerRun(200, func() {
					clock += 10
					s.Yield(0, clock)
				})
				stop = true
			})
			if allocs != 0 {
				t.Errorf("P=%d seed=%d: %.2f allocs per round of %d yields, want 0", p, seed, allocs, p)
			}
		}
	}
}
