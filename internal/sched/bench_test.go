package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// The cost of a scheduling point, as testing.B numbers next to lcmperf's
// sched.grant_ns_p2 / sched.grant_ns_p32 probes (bench/probes).  One op is
// one Yield.  Run them on one CPU: the token lets one goroutine run at a
// time, and a second CPU only adds cross-CPU wake-ups.
//
//	go test -run '^$' -bench 'Yield|PostApply' -cpu 1 ./internal/sched

// ring passes the token round p goroutines with no work between
// scheduling points — every yield hands the token to another goroutine,
// as 99 % of the yields of the lcm-miss workload do — until each has
// yielded the given number of times.
func ring(p int, seed uint64, yields int) {
	s := New(p, seed)
	var wg sync.WaitGroup
	wg.Add(p)
	s.Start()
	for node := 0; node < p; node++ {
		go func(node int) {
			defer wg.Done()
			s.AwaitGrant(node)
			for i := 1; i <= yields; i++ {
				s.Yield(node, int64(i)*10)
			}
			s.Exit(node)
		}(node)
	}
	wg.Wait()
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
// a drain's two goroutine switches.  Compare with YieldRing, where one op
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
			var wg sync.WaitGroup
			wg.Add(p)
			s.Start()
			for node := 0; node < p; node++ {
				go func(node int) {
					defer wg.Done()
					s.AwaitGrant(node)
					for i := 0; i < phases; i++ {
						log.phase(s, node, batch)
					}
					s.Exit(node)
				}(node)
			}
			wg.Wait()
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
	var wg sync.WaitGroup
	wg.Add(p)
	s.Start()
	for node := 1; node < p; node++ {
		go func(node int) {
			defer wg.Done()
			s.AwaitGrant(node)
			s.Yield(node, far)
			s.Exit(node)
		}(node)
	}
	go func() {
		defer wg.Done()
		s.AwaitGrant(0)
		s.Yield(0, 1) // every peer, still at clock 0, runs and moves to its far clock
		begin()
		for i := 1; i <= n; i++ {
			s.Yield(0, int64(i)+1)
		}
		s.Exit(0)
	}()
	wg.Wait()
}

// TestYieldDoesNotAllocate: a scheduling point allocates nothing, whether
// the token moves through a gate or stays in place, at any machine size
// and seed.  The test goroutine is node 0 of a ring whose other nodes
// yield forever, so one Yield by it is p hand-offs; AllocsPerRun counts
// the mallocs of every goroutine.
func TestYieldDoesNotAllocate(t *testing.T) {
	for _, p := range []int{1, 2, 32, 256} {
		for _, seed := range []uint64{0, 1} {
			s := New(p, seed)
			var stop atomic.Bool
			var wg sync.WaitGroup
			s.Start()
			for node := 1; node < p; node++ {
				wg.Add(1)
				go func(node int) {
					defer wg.Done()
					s.AwaitGrant(node)
					for clock := int64(10); !stop.Load(); clock += 10 {
						s.Yield(node, clock)
					}
					s.Exit(node)
				}(node)
			}
			s.AwaitGrant(0)
			clock := int64(0)
			allocs := testing.AllocsPerRun(200, func() {
				clock += 10
				s.Yield(0, clock)
			})
			stop.Store(true)
			s.Exit(0)
			wg.Wait()
			if allocs != 0 {
				t.Errorf("P=%d seed=%d: %.2f allocs per round of %d yields, want 0", p, seed, allocs, p)
			}
		}
	}
}
