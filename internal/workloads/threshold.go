package workloads

import (
	"fmt"

	"lcm/internal/core"
	"lcm/internal/cstar"
	"lcm/internal/memsys"
	"lcm/internal/tempest"
)

// ThresholdSpec parameterizes the Threshold benchmark of Section 6.3: a
// stencil over a structured mesh that updates a point only when its value
// changes by more than a threshold.  The mesh is initially zero except for
// a few fixed-potential points, so only cells near a source change during
// the early iterations and the modified fraction stays small (the paper
// reports 2.1%).
//
// Paper configuration: N=512, Iters=50, static partitioning.
type ThresholdSpec struct {
	N     int
	Iters int
	// Threshold is the minimum change that triggers an update.
	Threshold float32
	// Sources is the number of fixed-potential points.
	Sources int
}

// PaperThreshold returns the paper's configuration.
func PaperThreshold() ThresholdSpec {
	return ThresholdSpec{N: 512, Iters: 50, Threshold: 0.05, Sources: 6}
}

// thresholdSources spreads the fixed points deterministically over the
// interior.
func thresholdSources(spec ThresholdSpec) [][2]int {
	pts := make([][2]int, 0, spec.Sources)
	for s := 0; s < spec.Sources; s++ {
		i := (s*2097 + 311) % (spec.N - 2)
		j := (s*4421 + 739) % (spec.N - 2)
		pts = append(pts, [2]int{1 + i, 1 + j})
	}
	return pts
}

// RunThreshold executes the Threshold benchmark on the given system.
func RunThreshold(sys cstar.System, spec ThresholdSpec, cfg Config) Result {
	cfg = cfg.Norm()
	res := Result{Workload: "Threshold", System: sys, Extra: map[string]float64{}}
	m := cfg.Machine(sys)

	a := cstar.NewMatrixF32(m, "T", spec.N, spec.N, cstar.DataPolicy(sys), memsys.Interleaved)
	var old *cstar.MatrixF32
	if sys == cstar.Copying {
		// Without LCM the mesh must be fully copied each iteration to
		// move values from the old mesh to the new one; the program
		// itself copies the not-updated values (Section 6.3), so the
		// copy is folded into the update loop below.
		old = cstar.NewMatrixF32(m, "T.old", spec.N, spec.N, core.Coherent(), memsys.Interleaved)
	}
	m.Freeze()

	srcs := thresholdSources(spec)
	// Dense fixed-point lookup (a map lookup per visited cell dominated
	// the host-time profile); fixedRow gates the row-span fast path below.
	fixed := make([]bool, spec.N*spec.N)
	fixedRow := make([]bool, spec.N)
	for _, p := range srcs {
		a.Poke(p[0], p[1], 100)
		if old != nil {
			old.Poke(p[0], p[1], 100)
		}
		fixed[p[0]*spec.N+p[1]] = true
		fixedRow[p[0]] = true
	}

	plan := cstar.Lower(stencilSummary, sys)
	sched := cstar.StaticSchedule{}
	inner := spec.N - 2
	total := inner * inner
	scratch := newRowScratch(cfg.P, inner)
	var updated, visited int64

	runErr := m.RunErr(func(n *tempest.Node) {
		cur, prev := a, old
		var myUpdated, myVisited int64
		for it := 0; it < spec.Iters; it++ {
			src := cur
			if plan.Mode == cstar.ModeCopying {
				src = prev
			}
			cell := func(i, j int) {
				myVisited++
				v := src.Get(n, i, j)
				if fixed[i*spec.N+j] {
					if plan.Mode == cstar.ModeCopying {
						cur.Set(n, i, j, v) // program-level copy
					}
					return
				}
				nv := stencilVal(src.Get(n, i-1, j), src.Get(n, i+1, j),
					src.Get(n, i, j-1), src.Get(n, i, j+1))
				n.Compute(5)
				if abs32(nv-v) > spec.Threshold {
					cur.Set(n, i, j, nv)
					myUpdated++
				} else if plan.Mode == cstar.ModeCopying {
					// The explicit-copy version must still move the
					// unchanged value into the new mesh.
					cur.Set(n, i, j, v)
					n.Ctr.CopiedWords++
				}
			}
			if plan.Mode == cstar.ModeCopying {
				// Span sweep over rows without fixed points (reads from
				// the old mesh only, writes to the new mesh only); rows
				// holding a fixed point keep the per-element path.
				// Accounting matches the scalar loop: k value reads, 4k
				// neighbour reads, 5k compute units and k writes per
				// k-element piece.
				sc := scratch[n.ID]
				lo, hi := sched.Range(n.ID, n.M.P, it, total)
				sweepRowPieces(lo, hi, inner, func(i, jlo, jhi int) {
					if fixedRow[i] {
						for j := jlo; j < jhi; j++ {
							cell(i, j)
						}
						return
					}
					k := jhi - jlo
					myVisited += int64(k)
					val, out := sc.val[:k], sc.out[:k]
					up, down := sc.up[:k], sc.down[:k]
					left, right := sc.left[:k], sc.right[:k]
					src.GetRowSpan(n, i, jlo, val)
					src.GetRowSpan(n, i-1, jlo, up)
					src.GetRowSpan(n, i+1, jlo, down)
					src.GetRowSpan(n, i, jlo-1, left)
					src.GetRowSpan(n, i, jlo+1, right)
					for x := 0; x < k; x++ {
						nv := stencilVal(up[x], down[x], left[x], right[x])
						if abs32(nv-val[x]) > spec.Threshold {
							out[x] = nv
							myUpdated++
						} else {
							out[x] = val[x]
							n.Ctr.CopiedWords++
						}
					}
					n.Compute(5 * int64(k))
					cur.SetRowSpan(n, i, jlo, out)
				})
				cstar.EndParallel(n)
				cur, prev = prev, cur
				continue
			}
			cstar.ForEach(n, sched, plan, it, total, func(idx int) {
				cell(1+idx/inner, 1+idx%inner)
			})
			cstar.EndParallel(n)
		}
		updated += myUpdated
		visited += myVisited
	})
	if runErr != nil {
		// The machine is poisoned (a node died or the watchdog fired);
		// report the structured error without reading further state.
		res.Err = runErr
		return res
	}
	finish(m, &res)
	res.Extra["modified_ratio"] = float64(updated) / float64(visited)

	if cfg.Verify {
		final := a
		if sys == cstar.Copying && spec.Iters%2 == 0 {
			final = old
		}
		if res.Err == nil {
			res.Err = verifyThreshold(final, spec)
		}
	}
	return res
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// verifyThreshold recomputes the benchmark sequentially and compares.
func verifyThreshold(got *cstar.MatrixF32, spec ThresholdSpec) error {
	n := spec.N
	cur := make([][]float32, n)
	old := make([][]float32, n)
	for i := range cur {
		cur[i] = make([]float32, n)
		old[i] = make([]float32, n)
	}
	fixed := make(map[[2]int]bool)
	for _, p := range thresholdSources(spec) {
		cur[p[0]][p[1]] = 100
		old[p[0]][p[1]] = 100
		fixed[p] = true
	}
	for it := 0; it < spec.Iters; it++ {
		cur, old = old, cur
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				v := old[i][j]
				if fixed[[2]int{i, j}] {
					cur[i][j] = v
					continue
				}
				nv := stencilVal(old[i-1][j], old[i+1][j], old[i][j-1], old[i][j+1])
				if abs32(nv-v) > spec.Threshold {
					cur[i][j] = nv
				} else {
					cur[i][j] = v
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !approxEq(got.Peek(i, j), cur[i][j]) {
				return fmt.Errorf("threshold: T[%d][%d] = %v, want %v", i, j, got.Peek(i, j), cur[i][j])
			}
		}
	}
	return nil
}
