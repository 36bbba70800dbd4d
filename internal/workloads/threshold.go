package workloads

import (
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
	res, _ := runThreshold(sys, spec, cfg)
	return res
}

// runThreshold is RunThreshold that also returns the matrix the last
// iteration wrote, nil when the run failed.
func runThreshold(sys cstar.System, spec ThresholdSpec, cfg Config) (Result, *cstar.MatrixF32) {
	cfg = cfg.Norm()
	res := Result{Workload: "Threshold", System: sys, Extra: map[string]float64{}}
	m := cfg.Machine(sys)

	mesh := cstar.Copies[*cstar.MatrixF32]{
		cstar.NewMatrixF32(m, "T", spec.N, spec.N, cstar.DataPolicy(sys), memsys.Interleaved)}
	if sys == cstar.Copying {
		// Without LCM the mesh must be fully copied each iteration to
		// move values from the old mesh to the new one; the program
		// itself copies the not-updated values (Section 6.3), so the
		// copy is folded into the update loop below.
		mesh = append(mesh, cstar.NewMatrixF32(m, "T.old", spec.N, spec.N, core.Coherent(), memsys.Interleaved))
	}
	m.Freeze()

	srcs := thresholdSources(spec)
	// Dense fixed-point lookup (a map lookup per visited cell dominated
	// the host-time profile); fixedRow gates the row-span fast path below.
	fixed := make([]bool, spec.N*spec.N)
	fixedRow := make([]bool, spec.N)
	for _, p := range srcs {
		for _, a := range mesh {
			a.Poke(p[0], p[1], 100)
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
		var myUpdated, myVisited int64
		for it := 0; it < spec.Iters; it++ {
			src, cur := mesh.Old(it), mesh.New(it)
			call := cstar.Call{Plan: plan, Sched: sched, Total: total, Old: src, Writes: []cstar.Elements{cur.Interior()}}
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
				// k-element piece.  As in Stencil's sweep, the old mesh
				// is read in place and a piece the node holds writable is
				// written in place.
				sc := scratch[n.ID]
				lo, hi := call.Begin(n, it)
				sweepRowPieces(lo, hi, inner, func(i, jlo, jhi int) {
					if fixedRow[i] {
						for j := jlo; j < jhi; j++ {
							cell(i, j)
						}
						return
					}
					k := jhi - jlo
					myVisited += int64(k)
					val := src.ReadRowView(n, i, jlo, sc.val[:k])
					up := src.ReadRowView(n, i-1, jlo, sc.up[:k])
					down := src.ReadRowView(n, i+1, jlo, sc.down[:k])
					left := src.ReadRowView(n, i, jlo-1, sc.left[:k])
					right := src.ReadRowView(n, i, jlo+1, sc.right[:k])
					out := cur.StoreRowView(n, i, jlo, k)
					inPlace := out != nil
					if !inPlace {
						out = sc.out[:k]
					}
					// Cut to out's length, so that the loop checks no bounds.
					val, up, down = val[:len(out)], up[:len(out)], down[:len(out)]
					left, right = left[:len(out)], right[:len(out)]
					th, copied := spec.Threshold, 0
					for x := range out {
						nv := stencilVal(up[x], down[x], left[x], right[x])
						if abs32(nv-val[x]) > th {
							out[x] = nv
						} else {
							out[x] = val[x]
							copied++
						}
					}
					myUpdated += int64(k - copied)
					n.Ctr.CopiedWords += int64(copied)
					n.Compute(5 * int64(k))
					if !inPlace {
						cur.SetRowSpan(n, i, jlo, out)
					}
				})
				call.End(n)
				continue
			}
			call.Each(n, it, func(idx int) {
				cell(1+idx/inner, 1+idx%inner)
			})
		}
		updated += myUpdated
		visited += myVisited
	})
	if runErr != nil {
		// The machine is poisoned (a node died or the run deadlocked);
		// report the structured error without reading further state.
		res.Err = runErr
		return res, nil
	}
	finish(m, &res)
	res.Extra["modified_ratio"] = float64(updated) / float64(visited)

	final := mesh.Old(spec.Iters) // what the last iteration wrote
	if cfg.Verify && res.Err == nil {
		res.Err = verifyThreshold(final, spec)
	}
	return res, final
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// verifyThreshold recomputes the benchmark sequentially with two flat
// arrays and compares.
func verifyThreshold(got *cstar.MatrixF32, spec ThresholdSpec) error {
	n := spec.N
	cur, old := make([]float32, n*n), make([]float32, n*n)
	fixed := make([]bool, n*n) // dense, as in RunThreshold
	for _, p := range thresholdSources(spec) {
		cur[p[0]*n+p[1]] = 100
		old[p[0]*n+p[1]] = 100
		fixed[p[0]*n+p[1]] = true
	}
	for it := 0; it < spec.Iters; it++ {
		cur, old = old, cur
		for i := 1; i < n-1; i++ {
			up, mid, down := old[(i-1)*n:i*n], old[i*n:(i+1)*n], old[(i+1)*n:(i+2)*n]
			out, fix := cur[i*n:(i+1)*n], fixed[i*n:(i+1)*n]
			for j := 1; j < n-1; j++ {
				v := mid[j]
				if !fix[j] {
					if nv := stencilVal(up[j], down[j], mid[j-1], mid[j+1]); abs32(nv-v) > spec.Threshold {
						v = nv
					}
				}
				out[j] = v
			}
		}
	}
	return compareMesh(got, cur, "threshold: T")
}
