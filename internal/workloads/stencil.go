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

// initStencilMesh writes the initial condition into a mesh's home image: a
// hot top boundary over a varied interior, so every element changes every
// iteration (the paper's mesh has activity and cache-block reuse
// everywhere, not a cold front creeping from one edge).
func initStencilMesh(poke func(i, j int, v float32), n int) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			poke(i, j, float32((i*31+j*17)%97)/9.7)
		}
	}
	for j := 0; j < n; j++ {
		poke(0, j, 100)
	}
}

// stencilVal computes one element update; both the parallel and the
// sequential code use exactly this expression, so results are bit-equal.
func stencilVal(up, down, left, right float32) float32 {
	return (up + down + left + right) * 0.25
}

// RunStencil executes the Stencil benchmark on the given memory system.
func RunStencil(sys cstar.System, spec StencilSpec, cfg Config) Result {
	cfg = cfg.Norm()
	res := Result{Workload: "Stencil", System: sys, Sched: spec.Sched}
	m := cfg.Machine(sys)

	a := cstar.NewMatrixF32(m, "A", spec.N, spec.N, cstar.DataPolicy(sys), memsys.Interleaved)
	var old *cstar.MatrixF32
	if sys == cstar.Copying {
		// The compiler's explicit two-copy lowering (Section 6.1): all
		// reads from the old copy, all writes to the new, pointer swap
		// after each iteration.
		old = cstar.NewMatrixF32(m, "A.old", spec.N, spec.N, core.Coherent(), memsys.Interleaved)
	}
	m.Freeze()

	initStencilMesh(a.Poke, spec.N)
	if old != nil {
		initStencilMesh(old.Poke, spec.N)
	}

	plan := cstar.Lower(stencilSummary, sys)
	sched := schedFor(spec.Sched)
	inner := spec.N - 2
	total := inner * inner
	scratch := newRowScratch(cfg.P, inner)

	runErr := m.RunErr(func(n *tempest.Node) {
		cur, prev := a, old
		for it := 0; it < spec.Iters; it++ {
			src := cur
			if plan.Mode == cstar.ModeCopying {
				src = prev
				// The old copy is read-only for the whole call.  (Under
				// LCM, src is cur, which the call writes.)
				n.DeclareReadOnly(src.Region())
			}
			if plan.Mode == cstar.ModeCopying {
				// Span sweep: the two-copy lowering reads only the old
				// mesh and writes only the new one, so whole row pieces
				// can stream through the span engine.  Accounting is
				// identical to the per-element loop: the same blocks
				// fault at the same first touch, and 4k reads + k writes
				// + 4k compute units are charged per k-element piece.
				sc := scratch[n.ID]
				lo, hi := sched.Range(n.ID, n.M.P, it, total)
				ownChunk(n, cur, lo, hi, inner)
				sweepRowPieces(lo, hi, inner, func(i, jlo, jhi int) {
					k := jhi - jlo
					up, down := sc.up[:k], sc.down[:k]
					left, right := sc.left[:k], sc.right[:k]
					out := sc.out[:k]
					src.GetRowSpan(n, i-1, jlo, up)
					src.GetRowSpan(n, i+1, jlo, down)
					src.GetRowSpan(n, i, jlo-1, left)
					src.GetRowSpan(n, i, jlo+1, right)
					for x := 0; x < k; x++ {
						out[x] = stencilVal(up[x], down[x], left[x], right[x])
					}
					n.Compute(4 * int64(k))
					cur.SetRowSpan(n, i, jlo, out)
				})
				cstar.EndParallel(n)
				cur, prev = prev, cur
				continue
			}
			cstar.ForEach(n, sched, plan, it, total, func(idx int) {
				i := 1 + idx/inner
				j := 1 + idx%inner
				v := stencilVal(src.Get(n, i-1, j), src.Get(n, i+1, j),
					src.Get(n, i, j-1), src.Get(n, i, j+1))
				cur.Set(n, i, j, v)
				n.Compute(4)
			})
			cstar.EndParallel(n)
		}
	})
	if runErr != nil {
		// The machine is poisoned (a node died or the run deadlocked);
		// report the structured error without reading further state.
		res.Err = runErr
		return res
	}
	finish(m, &res)

	if cfg.Verify {
		// Under Copying, iteration k writes a when k is even and old
		// when k is odd, so the last write (k = Iters-1) lands in a for
		// odd Iters and in old for even Iters.  Under LCM it is always a.
		final := a
		if sys == cstar.Copying && spec.Iters%2 == 0 {
			final = old
		}
		if res.Err == nil {
			res.Err = verifyStencil(final, spec)
		}
	}
	return res
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

// ownChunk declares the new copy's cells of the flattened interior index
// range [lo, hi) node n's own for the call: under the two-copy lowering it
// writes each of them and nobody else touches them.  The blocks a
// neighbouring chunk shares stay undeclared (tempest.Node.DeclareOwned).
func ownChunk(n *tempest.Node, cur *cstar.MatrixF32, lo, hi, inner int) {
	if lo < hi {
		cur.DeclareOwned(n, 1+lo/inner, 1+lo%inner, 1+(hi-1)/inner, 1+(hi-1)%inner)
	}
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

// verifyStencil recomputes the stencil sequentially with two arrays and
// compares every element.
func verifyStencil(got *cstar.MatrixF32, spec StencilSpec) error {
	n := spec.N
	cur := make([][]float32, n)
	old := make([][]float32, n)
	for i := range cur {
		cur[i] = make([]float32, n)
		old[i] = make([]float32, n)
	}
	initStencilMesh(func(i, j int, v float32) { cur[i][j] = v; old[i][j] = v }, n)
	for it := 0; it < spec.Iters; it++ {
		cur, old = old, cur
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				cur[i][j] = stencilVal(old[i-1][j], old[i+1][j], old[i][j-1], old[i][j+1])
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !approxEq(got.Peek(i, j), cur[i][j]) {
				return fmt.Errorf("stencil: A[%d][%d] = %v, want %v", i, j, got.Peek(i, j), cur[i][j])
			}
		}
	}
	return nil
}
