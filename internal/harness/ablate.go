package harness

import (
	"fmt"
	"slices"

	"lcm/internal/core"
	"lcm/internal/cstar"
	"lcm/internal/memsys"
	"lcm/internal/stats"
	"lcm/internal/tempest"
	"lcm/internal/workloads"
)

// This file implements the Section 7 ablation experiments: global
// reductions (7.1), false-sharing relief (7.4) and stale data (7.5).
// Each returns measurements and prints a table; the claims being tested
// are stated in the output.

// measured runs the bodies on a raw machine, one run each, and collects its
// clocks and counters into a result, as the workloads do for a cell, so that
// an ablation's variants travel, render and fail like any other run.  variant
// names the row; the caller adds the experiment's own observables as Extra.
func measured(m *tempest.Machine, experiment, variant string, sys cstar.System, bodies ...func(*tempest.Node)) workloads.Result {
	r := workloads.Result{Workload: experiment, Sched: variant, System: sys, Net: m.Net.Name()}
	for _, body := range bodies {
		if r.Err = m.RunErr(body); r.Err != nil {
			return r
		}
	}
	r.Cycles, r.C = m.MaxClock(), m.TotalCounters()
	return r
}

func misses(r workloads.Result) string { return stats.GroupInt(r.C.Misses) }

// extra shows a per-experiment fact of the result as a whole number.
func extra(key string) func(workloads.Result) string {
	return func(r workloads.Result) string { return fmt.Sprintf("%.0f", r.Extra[key]) }
}

// ablation prints one experiment's table — a row per variant, named by its
// Sched — and the paper claim under test, and returns the variants.
func (s *Suite) ablation(title string, variants []workloads.Result, claim string, cols ...col) []workloads.Result {
	names := make([]point, len(variants))
	rows := make([][]workloads.Result, len(variants))
	for i, r := range variants {
		names[i], rows[i] = point{label: r.Sched}, []workloads.Result{r}
	}
	s.pivot(title, names, rows, append([]col{pick("cycles", 0, cycles), pick("misses", 0, misses)}, cols...), claim)
	return variants
}

// RunReduction compares three ways of summing n values across P nodes
// (Section 7.1): a lock around a shared accumulator, per-node partial sums
// combined serially, and an RSM reduction region whose reconciliation
// function does the combine.  Extra["value"] is the sum each computed.
func (s *Suite) RunReduction(n int) []workloads.Result {
	cfg := s.Cfg.Norm()
	want := float64(n) * float64(n-1) / 2

	// Strategy 1: lock-protected shared accumulator.  Each node adds its
	// chunk under the lock in batches, as a pragmatic programmer would;
	// the lock transfer and the serialized critical sections dominate.
	m := cfg.Machine(cstar.Copying)
	total := cstar.NewVectorF64(m, "total", 1, core.Coherent(), memsys.SingleHome)
	m.Freeze()
	var lk tempest.SimLock
	lock := measured(m, "Reduction", "lock", cstar.Copying, func(nd *tempest.Node) {
		lo, hi := (cstar.StaticSchedule{}).Range(nd.ID, m.P, 0, n)
		var local float64
		for i := lo; i < hi; i++ {
			local += float64(i)
			nd.Compute(1)
			// Batch into the shared total every 64 elements — the
			// naive per-element lock would be even worse.
			if (i-lo)%64 == 63 || i == hi-1 {
				lk.Acquire(nd)
				total.Set(nd, 0, total.Get(nd, 0)+local)
				lk.Release(nd)
				local = 0
			}
		}
		nd.Barrier()
	})
	lock.Extra = map[string]float64{"value": total.Peek(0)}
	out := []workloads.Result{lock}

	// Strategy 2: hand-written partial sums (what the paper suggests a
	// programmer rewrites the loop into).  Strategy 3: RSM reduction — the
	// same source, with the memory system combining private copies at
	// reconciliation.
	for _, v := range []struct {
		name string
		sys  cstar.System
	}{{"partials", cstar.Copying}, {"rsm-reduction", cstar.LCMmcc}} {
		m := cfg.Machine(v.sys)
		red := cstar.NewReduceF64(m, "total", v.sys)
		m.Freeze()
		var sum float64
		r := measured(m, "Reduction", v.name, v.sys, func(nd *tempest.Node) {
			lo, hi := (cstar.StaticSchedule{}).Range(nd.ID, m.P, 0, n)
			for i := lo; i < hi; i++ {
				red.Add(nd, float64(i))
				nd.Compute(1)
			}
			red.Reduce(nd)
		}, func(nd *tempest.Node) { // reading the total back is a run of its own
			if nd.ID == 0 {
				sum = red.Value(nd)
			}
		})
		r.Extra = map[string]float64{"value": sum}
		out = append(out, r)
	}

	return s.ablation(
		fmt.Sprintf("Ablation 7.1: global sum of %d values, P=%d (all values must equal %.0f)", n, cfg.P, want),
		out, `  paper claim: the RSM reconciliation reduction avoids the lock bottleneck and
  needs no extra analysis or data structures, at cost comparable to hand-written partials.`,
		pick("value", 0, extra("value")))
}

// RunFalseSharing measures Section 7.4: writers updating distinct words of
// the same cache blocks, with writes to each block interleaved across the
// writers over time: each phase consists of rounds in which every writer
// touches a different block, rotating every round, so consecutive writes
// to one block always come from different processors.  Under
// invalidation-based coherence every such write steals the block from its
// previous writer; under LCM the first write of the phase makes a private
// copy and all later writes hit it, with reconciliation merging the
// disjoint words.
func (s *Suite) RunFalseSharing(blocks, steps int) []workloads.Result {
	cfg := s.Cfg.Norm()
	var out []workloads.Result
	wordsPerBlock := int(cfg.BlockSize / 4)
	writers := min(cfg.P, wordsPerBlock, blocks)
	rounds := 4 * blocks // each writer revisits each block 4 times per phase
	for _, sys := range reportOrder {
		m := cfg.Machine(sys)
		v := cstar.NewVectorI32(m, "shared", blocks*wordsPerBlock, cstar.DataPolicy(sys), memsys.Interleaved)
		m.Freeze()
		r := measured(m, "FalseSharing", sys.String(), sys, func(nd *tempest.Node) {
			for st := 0; st < steps; st++ {
				for r := 0; r < rounds; r++ {
					if nd.ID < writers {
						b := (nd.ID + r) % blocks
						idx := b*wordsPerBlock + nd.ID
						v.Set(nd, idx, v.Get(nd, idx)+1)
					}
					nd.Barrier() // writes to a block interleave across writers
				}
				nd.ReconcileCopies()
			}
		})
		out = append(out, r)
		// Sanity: each writer hit each block rounds/blocks times per phase.
		want := int32(steps * rounds / blocks)
		for w := 0; w < writers && r.Err == nil; w++ {
			if got := v.Peek(w); got != want {
				fmt.Fprintf(s.Out, "  WARNING: word %d = %d, want %d\n", w, got, want)
			}
		}
	}
	return s.ablation(
		fmt.Sprintf("Ablation 7.4: false sharing — %d writers, %d-byte blocks, %d blocks, %d phases x %d interleaved rounds",
			writers, cfg.BlockSize, blocks, steps, rounds),
		out, `  paper claim: with private copies and word-level merge, false sharing causes no
  coherence ping-pong; the invalidation protocol transfers each block per writer per step.`)
}

// RunStaleData measures Section 7.5: one producer updates a field every
// phase; the other nodes read all of it every phase.  With StalePhases=k a
// consumer's copy survives up to k producer updates, trading staleness for
// eliminated re-fetches — the N-body "distant elements" optimization.
// Extra["max_lag"] is the worst staleness, in phases, a consumer read.
func (s *Suite) RunStaleData(words, phases int, staleness []int) []workloads.Result {
	cfg := s.Cfg.Norm()
	var out []workloads.Result
	for _, k := range staleness {
		m := cfg.Machine(cstar.LCMmcc)
		pol := core.Stale(k)
		if k == 0 {
			pol = core.LooselyCoherent()
		}
		field := cstar.NewVectorF32(m, "field", words, pol, memsys.SingleHome)
		m.Freeze()
		maxLag := 0
		r := measured(m, "StaleData", fmt.Sprintf("stale=%d", k), cstar.LCMmcc, func(nd *tempest.Node) {
			myMax := 0
			for ph := 0; ph < phases; ph++ {
				if nd.ID == 0 {
					for w := 0; w < words; w++ {
						field.Set(nd, w, float32(ph+1))
					}
				}
				nd.ReconcileCopies()
				if nd.ID != 0 {
					for w := 0; w < words; w++ {
						lag := (ph + 1) - int(field.Get(nd, w))
						if lag > myMax {
							myMax = lag
						}
					}
				}
			}
			nd.Barrier()
			if nd.ID == 1 {
				maxLag = myMax
			}
		})
		r.Extra = map[string]float64{"max_lag": float64(maxLag)}
		out = append(out, r)
	}
	return s.ablation(
		fmt.Sprintf("Ablation 7.5: stale data — producer updates %d words over %d phases, %d consumers",
			words, phases, cfg.P-1),
		out, `  paper claim: tolerating staleness eliminates refetches of repeatedly-updated data;
  misses fall as allowed staleness grows, bounded lag in exchange.`,
		pick("max_lag", 0, extra("max_lag")))
}

// RunAblations runs all Section 7 experiments at default sizes and returns
// every variant's result; as with grid cells, a variant that failed carries
// its Err and the caller decides what that means.
func (s *Suite) RunAblations() []workloads.Result {
	return slices.Concat(
		s.RunReduction(1<<16),
		s.RunFalseSharing(16, 50),
		s.RunStaleData(256, 40, []int{0, 1, 2, 4, 8}))
}
