package workloads

import (
	"fmt"

	"lcm/internal/core"
	"lcm/internal/cstar"
	"lcm/internal/memsys"
	"lcm/internal/tempest"
)

// StencilSpec parameterizes the Stencil benchmark of Sections 4.2/6.1:
// a four-point relaxation over a fixed two-dimensional mesh.
// Paper configuration: N=1024, Iters=50, measured with both static
// ("Stencil-stat") and dynamic ("Stencil-dyn") partitioning.
type StencilSpec struct {
	N     int
	Iters int
	// Sched is "static" or "dynamic".
	Sched string
}

// PaperStencil returns the paper's configuration.
func PaperStencil(sched string) StencilSpec {
	return StencilSpec{N: 1024, Iters: 50, Sched: sched}
}

// stencilSummary is what compiler analysis sees in the stencil parallel
// function: each invocation writes its own element and reads neighbours.
var stencilSummary = cstar.AccessSummary{WritesOwnElementOnly: true, ReadsSharedData: true}

// stencilMesh calls fn with each row of the initial condition, first row
// first, in one buffer it reuses: a hot top boundary over a varied
// interior, so every element changes every iteration (the paper's mesh has
// activity and cache-block reuse everywhere, not a cold front creeping from
// one edge).  Interior element (i, j) is float32((i*31+j*17)%97)/9.7, which
// a row reads from a 97-entry table by stepping its index 17 at a time.
func stencilMesh(n int, fn func(i int, row []float32)) {
	var tab [97]float32
	for k := range tab {
		tab[k] = float32(k) / 9.7
	}
	row := make([]float32, n)
	for j := range row {
		row[j] = 100
	}
	fn(0, row)
	for i := 1; i < n; i++ {
		k := i * 31 % len(tab)
		for j := range row {
			row[j] = tab[k]
			if k += 17; k >= len(tab) {
				k -= len(tab)
			}
		}
		fn(i, row)
	}
}

// stencilVal computes one element update; both the parallel and the
// sequential code use exactly this expression, so results are bit-equal.
func stencilVal(up, down, left, right float32) float32 {
	return (up + down + left + right) * 0.25
}

// RunStencil executes the Stencil benchmark on the given memory system.
func RunStencil(sys cstar.System, spec StencilSpec, cfg Config) Result {
	res, _ := runStencil(sys, spec, cfg)
	return res
}

// runStencil is RunStencil that also returns the matrix the last iteration
// wrote, nil when the run failed.
func runStencil(sys cstar.System, spec StencilSpec, cfg Config) (Result, *cstar.MatrixF32) {
	cfg = cfg.Norm()
	res := Result{Workload: "Stencil", System: sys, Sched: spec.Sched}
	m := cfg.Machine(sys)

	mesh := cstar.Copies[*cstar.MatrixF32]{
		cstar.NewMatrixF32(m, "A", spec.N, spec.N, cstar.DataPolicy(sys), memsys.Interleaved)}
	if sys == cstar.Copying {
		// The compiler's explicit two-copy lowering (Section 6.1): all
		// reads from the old copy, all writes to the new, pointer swap
		// after each iteration.
		mesh = append(mesh, cstar.NewMatrixF32(m, "A.old", spec.N, spec.N, core.Coherent(), memsys.Interleaved))
	}
	m.Freeze()

	stencilMesh(spec.N, func(i int, row []float32) {
		for _, a := range mesh {
			a.PokeRow(i, row)
		}
	})

	plan := cstar.Lower(stencilSummary, sys)
	sched := schedFor(spec.Sched)
	inner := spec.N - 2
	total := inner * inner
	scratch := newRowScratch(cfg.P, inner)

	runErr := m.RunErr(func(n *tempest.Node) {
		for it := 0; it < spec.Iters; it++ {
			src, cur := mesh.Old(it), mesh.New(it)
			call := cstar.Call{Plan: plan, Sched: sched, Total: total, Old: src, Writes: []cstar.Elements{cur.Interior()}}
			if plan.Mode == cstar.ModeCopying {
				// Span sweep: the two-copy lowering reads only the old
				// mesh and writes only the new one, so whole row pieces
				// can stream through the span engine.  Accounting is
				// identical to the per-element loop: the same blocks
				// fault at the same first touch, and 4k reads + k writes
				// + 4k compute units are charged per k-element piece.
				// The old mesh is read in place, and a piece the node
				// already holds writable is computed straight into the
				// new one; the scratch rows are the fallbacks.
				sc := scratch[n.ID]
				lo, hi := call.Begin(n, it)
				sweepRowPieces(lo, hi, inner, func(i, jlo, jhi int) {
					k := jhi - jlo
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
					up, down, left, right = up[:len(out)], down[:len(out)], left[:len(out)], right[:len(out)]
					for x := range out {
						out[x] = stencilVal(up[x], down[x], left[x], right[x])
					}
					n.Compute(4 * int64(k))
					if !inPlace {
						cur.SetRowSpan(n, i, jlo, out)
					}
				})
				call.End(n)
				continue
			}
			call.Each(n, it, func(idx int) {
				i := 1 + idx/inner
				j := 1 + idx%inner
				v := stencilVal(src.Get(n, i-1, j), src.Get(n, i+1, j),
					src.Get(n, i, j-1), src.Get(n, i, j+1))
				cur.Set(n, i, j, v)
				n.Compute(4)
			})
		}
	})
	if runErr != nil {
		// The machine is poisoned (a node died or the run deadlocked);
		// report the structured error without reading further state.
		res.Err = runErr
		return res, nil
	}
	finish(m, &res)

	final := mesh.Old(spec.Iters) // what the last iteration wrote
	if cfg.Verify && res.Err == nil {
		res.Err = verifyStencil(final, spec)
	}
	return res, final
}

// rowScratch holds one node's staging buffers for the span sweeps of the
// stencil-family workloads (Stencil, Threshold): a value row, its four
// neighbour rows, and the output row.
type rowScratch struct {
	val, up, down, left, right, out []float32
}

// newRowScratch allocates per-node row buffers of capacity k.
func newRowScratch(p, k int) []rowScratch {
	sc := make([]rowScratch, p)
	for i := range sc {
		sc[i] = rowScratch{
			val: make([]float32, k), up: make([]float32, k),
			down: make([]float32, k), left: make([]float32, k),
			right: make([]float32, k), out: make([]float32, k),
		}
	}
	return sc
}

// sweepRowPieces invokes fn(i, jlo, jhi) for each maximal single-row piece
// of the flattened interior index range [lo, hi), where index idx maps to
// mesh cell (1 + idx/inner, 1 + idx%inner).
func sweepRowPieces(lo, hi, inner int, fn func(i, jlo, jhi int)) {
	for idx := lo; idx < hi; {
		end := idx + inner - idx%inner // start of the next mesh row
		if end > hi {
			end = hi
		}
		fn(1+idx/inner, 1+idx%inner, 1+idx%inner+(end-idx))
		idx = end
	}
}

// verifyStencil recomputes the stencil sequentially with two flat arrays and
// compares every element.
func verifyStencil(got *cstar.MatrixF32, spec StencilSpec) error {
	n := spec.N
	cur, old := make([]float32, n*n), make([]float32, n*n)
	stencilMesh(n, func(i int, row []float32) {
		copy(cur[i*n:], row)
		copy(old[i*n:], row)
	})
	for it := 0; it < spec.Iters; it++ {
		cur, old = old, cur
		for i := 1; i < n-1; i++ {
			up, mid, down := old[(i-1)*n:i*n], old[i*n:(i+1)*n], old[(i+1)*n:(i+2)*n]
			out := cur[i*n : (i+1)*n]
			for j := 1; j < n-1; j++ {
				out[j] = stencilVal(up[j], down[j], mid[j-1], mid[j+1])
			}
		}
	}
	return compareMesh(got, cur, "stencil: A")
}

// compareMesh compares got's home image, a row at a time, with want, its
// sequential reference stored flat and row-major, and names the first
// element that differs as what[i][j].
func compareMesh(got *cstar.MatrixF32, want []float32, what string) error {
	n := got.Cols
	row := make([]float32, n)
	for i := 0; i < got.Rows; i++ {
		got.PeekRow(i, row)
		for j, v := range row {
			if w := want[i*n+j]; !approxEq(v, w) {
				return fmt.Errorf("%s[%d][%d] = %v, want %v", what, i, j, v, w)
			}
		}
	}
	return nil
}
