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

// This file implements parameter sweeps beyond the paper's headline
// experiments: block-size sensitivity (LCM-mcc's advantage comes from
// spatial reuse of clean copies, which grows with the block; LCM-scc is
// nearly insensitive) and processor-count scaling (the paper argues
// reconciliation at the homes is unlikely to bottleneck because few copies
// of each block exist and flushes arrive spread out — the sweep checks
// that reconcile cost grows gracefully with P).

// stencilName renders the Stencil cell a sweep runs for its title, e.g.
// "Stencil-stat (64x64, 3 iters)".
func (s *Suite) stencilName(sched string) string {
	spec := s.StencilSpec(sched)
	return fmt.Sprintf("%s (%dx%d, %d iters)",
		workloads.Result{Workload: "Stencil", Sched: sched}.Label(), spec.N, spec.N, spec.Iters)
}

func missesK(r workloads.Result) string   { return stats.Thousands(r.C.Misses) + "k" }
func evictions(r workloads.Result) string { return stats.GroupInt(r.C.Evictions) }

// RunBlockSizeSweep runs the Stencil benchmark across block sizes for all
// three systems.
func (s *Suite) RunBlockSizeSweep(sizes []uint32) [][]workloads.Result {
	points := axis(sizes, "%dB blocks", func(cfg *workloads.Config, bsz uint32) { cfg.BlockSize = bsz })
	return s.sweep("Sweep: "+s.stencilName("static")+" vs block size",
		CellSpec{"Stencil", "static"}, points, sweepSystems, []col{
			pick("copying:cycles", cop, cycles), pick("scc:cycles", scc, cycles), pick("mcc:cycles", mcc, cycles),
			pick("scc:miss", scc, missesK), pick("mcc:miss", mcc, missesK),
		}, `  larger blocks amortize fetches for all systems; the scc/mcc gap tracks the
  spatial reuse a local clean copy preserves across flushed invocations.`)
}

// RunProcessorSweep runs Stencil-dyn across machine sizes, under the
// Copying baseline and LCM-mcc.
func (s *Suite) RunProcessorSweep(ps []int) [][]workloads.Result {
	return s.sweep("Sweep: "+s.stencilName("dynamic")+" vs processors",
		CellSpec{"Stencil", "dynamic"}, machineSizes(ps), sweepPair, []col{
			pick("copying:cycles", cop, cycles), pick("mcc:cycles", mcc, cycles),
			speedup("mcc speedup over copying", cop, mcc),
		}, `  both systems scale; LCM's reconciliation commits in parallel at the homes, so
  it does not become the serialization point the paper's Section 5.1 worries about.`)
}

// machineSizes is the processor-count axis: one point per P.
func machineSizes(ps []int) []point {
	return axis(ps, "P=%d", func(cfg *workloads.Config, p int) { cfg.P = p })
}

// RunCacheSweep runs Stencil-stat with per-node caches bounded to the given
// capacities in blocks (0 = unbounded).  The paper notes that Stache's huge
// static-partition advantage depends on keeping whole chunk interiors
// resident: "On a machine with a limited cache ... the first version's
// [dynamic] performance is likely to be more typical."  Shrinking the cache
// below the working set makes the baseline refetch its chunk every
// iteration, eroding exactly that advantage.
func (s *Suite) RunCacheSweep(lines []int) [][]workloads.Result {
	points := axis(lines, "%d blocks", func(cfg *workloads.Config, lns int) { cfg.CacheLines = lns })
	for i, lns := range lines {
		if lns == 0 {
			points[i].label = "unbounded"
		}
	}
	return s.sweep("Sweep: "+s.stencilName("static")+" vs per-node cache capacity",
		CellSpec{"Stencil", "static"}, points, sweepPair, []col{
			pick("copying:cycles", cop, cycles), pick("mcc:cycles", mcc, cycles),
			speedup("stache advantage", mcc, cop), pick("copying:evict", cop, evictions),
		}, `  the baseline's static-partition advantage shrinks as the cache stops holding
  chunk interiors across iterations (paper Section 6.3's caveat).`)
}

// RunCommitSweep contrasts LCM's parallel per-home reconciliation commit
// with a serialized commit at one node, across machine sizes.  Section 5.1
// worries that "reconciliation occurs at the home location of a modified
// block ... [which] poses a potential bottleneck for systems with many
// processors" and then argues it is unlikely to matter; the sweep
// quantifies that argument.  A row holds the parallel run, then the serial.
func (s *Suite) RunCommitSweep(ps []int) [][]workloads.Result {
	spec := s.StencilSpec("static")
	points := machineSizes(ps)
	rows := make([][]workloads.Result, len(points))
	for i, pt := range points {
		for _, mode := range []core.CommitMode{core.CommitHomeParallel, core.CommitSerial} {
			rows[i] = append(rows[i], runStencilWithCommitMode(spec, pt.apply(s.Cfg), mode))
		}
	}
	const parallel, serial = 0, 1
	s.pivot("Sweep: LCM-mcc "+s.stencilName("static")+" commit strategy", points, rows, []col{
		pick("parallel:cycles", parallel, cycles), pick("serial:cycles", serial, cycles),
		speedup("serial slowdown", serial, parallel),
	}, `  even fully serialized, commit work is ~1% of a phase at realistic costs —
  confirming Section 5.1's argument that reconciliation is unlikely to bottleneck
  (few copies per block, flushes spread out); the slowdown appears, and grows
  with P, only when per-block commit work is inflated (see the harness tests).`)
	return rows
}

// runStencilWithCommitMode reimplements just enough of the stencil loop to
// test commit strategies (the workloads package has no commit-mode knob,
// since no real configuration would choose the serial mode).
func runStencilWithCommitMode(spec workloads.StencilSpec, cfg workloads.Config, mode core.CommitMode) workloads.Result {
	m := cfg.Machine(cstar.LCMmcc)
	m.Protocol().(*core.LCM).SetCommitMode(mode)
	a := cstar.NewMatrixF32(m, "A", spec.N, spec.N, cstar.DataPolicy(cstar.LCMmcc), memsys.Interleaved)
	m.Freeze()
	for j := 0; j < spec.N; j++ {
		a.Poke(0, j, 100)
	}
	plan := cstar.Lower(cstar.AccessSummary{WritesOwnElementOnly: true, ReadsSharedData: true}, cstar.LCMmcc)
	inner := spec.N - 2
	call := cstar.Call{Plan: plan, Sched: cstar.StaticSchedule{}, Total: inner * inner}
	return measured(m, "Stencil", "static", cstar.LCMmcc, func(n *tempest.Node) {
		for it := 0; it < spec.Iters; it++ {
			call.Each(n, it, func(idx int) {
				i := 1 + idx/inner
				j := 1 + idx%inner
				v := (a.Get(n, i-1, j) + a.Get(n, i+1, j) + a.Get(n, i, j-1) + a.Get(n, i, j+1)) * 0.25
				a.Set(n, i, j, v)
				n.Compute(4)
			})
		}
	})
}

// RunSweeps runs the extension sweeps at sizes suited to the suite scale and
// returns the results of the block-size, processor, cache and commit sweeps,
// failed runs included (the interconnect sweep reports through its table).
func (s *Suite) RunSweeps() []workloads.Result {
	rows := s.RunBlockSizeSweep([]uint32{8, 16, 32, 64, 128})
	rows = append(rows, s.RunProcessorSweep([]int{4, 8, 16, 32})...)
	// Working set per node at scale: 2 meshes / P plus boundary; sweep
	// around it.
	spec := s.StencilSpec("static")
	cfg := s.Cfg.Norm()
	per := int(cfg.BlockSize / 4)
	ws := 2 * spec.N * ((spec.N + per - 1) / per) / cfg.P
	rows = append(rows, s.RunCacheSweep([]int{0, 2 * ws, ws, ws / 2, ws / 4})...)
	rows = append(rows, s.RunCommitSweep([]int{4, 8, 16, 32})...)
	s.DefaultNetSweep()
	return slices.Concat(rows...)
}
