package workloads

import (
	"fmt"

	"lcm/internal/cstar"
	"lcm/internal/mesh"
	"lcm/internal/tempest"
)

// AdaptiveSpec parameterizes the Adaptive benchmark of Section 6.2: the
// "electric potentials in a box" program.  A mesh of root cells relaxes
// toward the average of its neighbours; where the gradient is steep a cell
// subdivides into a quad-tree of finer cells, up to MaxDepth.
//
// Paper configuration: 64x64 initial mesh, quad-tree depth <= 4, 100
// iterations, measured with static and dynamic partitioning.
type AdaptiveSpec struct {
	N        int
	MaxDepth int
	Iters    int
	// Sched is "static" or "dynamic".
	Sched string
	// Electrodes is the number of fixed-potential root cells.
	Electrodes int
	// SubdivThreshold is the gradient that triggers refinement.
	SubdivThreshold float32
}

// PaperAdaptive returns the paper's configuration.
func PaperAdaptive(sched string) AdaptiveSpec {
	return AdaptiveSpec{N: 64, MaxDepth: 4, Iters: 100, Sched: sched,
		Electrodes: 5, SubdivThreshold: 4}
}

// adaptiveSummary: dynamic data structure, neighbour reads — exactly the
// case Section 6.2 argues a compiler cannot analyze.
var adaptiveSummary = cstar.AccessSummary{ReadsSharedData: true, DynamicStructure: true}

// adaptiveElectrodes places the fixed-potential roots deterministically.
func adaptiveElectrodes(spec AdaptiveSpec) [][2]int {
	pts := make([][2]int, 0, spec.Electrodes)
	for s := 0; s < spec.Electrodes; s++ {
		i := (s*37 + 11) % spec.N
		j := (s*53 + 23) % spec.N
		pts = append(pts, [2]int{i, j})
	}
	return pts
}

// relaxLeaf is the per-leaf update; sequential and parallel code share it
// so results are bit-equal.  The small drive term keeps cells active for
// the whole run (a time-varying source) without perturbing the subdivision
// criterion, which uses the undriven gradient.
// ord is the leaf's allocation ordinal within its subtree, which both the
// pool and the reference compute identically.
func relaxLeaf(lv, navg float32, ord, it int) float32 {
	return lv + (navg-lv)*0.25 + float32((ord+it)%5-2)*0.01
}

// RunAdaptive executes the Adaptive benchmark on the given system.
func RunAdaptive(sys cstar.System, spec AdaptiveSpec, cfg Config) Result {
	cfg = cfg.Norm()
	res := Result{Workload: "Adaptive", System: sys, Sched: spec.Sched,
		Extra: map[string]float64{}}
	m := cfg.Machine(sys)

	q := mesh.New(m, "mesh", spec.N, spec.N, spec.MaxDepth, cstar.DataPolicy(sys))
	var old *mesh.QuadPool
	if sys == cstar.Copying {
		// Two copies of the mesh, values copied between them before
		// each iteration (Section 6.3's description of Adaptive under
		// a conventional memory system).
		old = mesh.NewShadow(m, "mesh.old", q, cstar.DataPolicy(sys))
	}
	m.Freeze()

	q.InitRoots()
	elecs := adaptiveElectrodes(spec)
	fixed := make([]bool, spec.N*spec.N)
	for _, p := range elecs {
		q.Val.Poke(int(q.RootID(p[0], p[1])), 100)
		if old != nil {
			old.Val.Poke(int(q.RootID(p[0], p[1])), 100)
		}
		fixed[q.RootIndex(p[0], p[1])] = true
	}

	plan := cstar.Lower(adaptiveSummary, sys)
	sched := schedFor(spec.Sched)
	total := spec.N * spec.N
	leafScratch := make([][]int32, cfg.P)
	depthScratch := make([][]int, cfg.P)

	runErr := m.RunErr(func(n *tempest.Node) {
		for it := 0; it < spec.Iters; it++ {
			if plan.Mode == cstar.ModeCopying {
				// Conservative copy phase: every allocated cell of
				// every assigned subtree moves to the old copy, since
				// the compiler cannot tell which parts the iteration
				// will modify.
				lo, hi := sched.Range(n.ID, n.M.P, it, total)
				for r := lo; r < hi; r++ {
					cnt := int(q.GetCount(n, r))
					base := r * q.Stride()
					old.Val.CopyRange(n, q.Val, base, base+cnt)
				}
				n.Barrier()
			}
			src := q
			if plan.Mode == cstar.ModeCopying {
				src = old
			}
			cstar.ForEach(n, sched, plan, it, total, func(rIdx int) {
				i, j := rIdx/spec.N, rIdx%spec.N
				if fixed[rIdx] {
					return // electrode: potential is pinned
				}
				navg := rootNeighborAvg(n, src, q, spec, i, j)
				// Collect leaves first: subdivision must not extend
				// this invocation's own traversal.
				leaves := leafScratch[n.ID][:0]
				depths := depthScratch[n.ID][:0]
				q.VisitLeaves(n, q.RootID(i, j), 0, func(leaf int32, d int) {
					leaves = append(leaves, leaf)
					depths = append(depths, d)
				})
				var sum float32
				for k, leaf := range leaves {
					lv := src.Val.Get(n, int(leaf))
					nv := relaxLeaf(lv, navg, int(leaf)%q.Stride(), it)
					q.Val.Set(n, int(leaf), nv)
					n.Compute(3)
					sum += nv
					if abs32(navg-lv) > spec.SubdivThreshold {
						q.Subdivide(n, rIdx, leaf, depths[k])
					}
				}
				if len(leaves) > 1 {
					q.Val.Set(n, int(q.RootID(i, j)), sum/float32(len(leaves)))
				}
				leafScratch[n.ID] = leaves
				depthScratch[n.ID] = depths
			})
			cstar.EndParallel(n)
		}
	})
	if runErr != nil {
		// The machine is poisoned (a node died or the watchdog fired);
		// report the structured error without reading further state.
		res.Err = runErr
		return res
	}
	finish(m, &res)
	res.Extra["cells"] = float64(q.CountCells())

	if cfg.Verify {
		if res.Err == nil {
			res.Err = verifyAdaptive(q, spec)
		}
	}
	return res
}

// rootNeighborAvg averages the up/down/left/right root-cell values that
// exist, reading through src (the old copy under explicit copying).
func rootNeighborAvg(n *tempest.Node, src, q *mesh.QuadPool, spec AdaptiveSpec, i, j int) float32 {
	var sum float32
	cnt := 0
	if i > 0 {
		sum += src.Val.Get(n, int(q.RootID(i-1, j)))
		cnt++
	}
	if i < spec.N-1 {
		sum += src.Val.Get(n, int(q.RootID(i+1, j)))
		cnt++
	}
	if j > 0 {
		sum += src.Val.Get(n, int(q.RootID(i, j-1)))
		cnt++
	}
	if j < spec.N-1 {
		sum += src.Val.Get(n, int(q.RootID(i, j+1)))
		cnt++
	}
	return sum / float32(cnt)
}

// seqCell is the sequential reference's quad-tree node.  ord mirrors the
// pool's within-subtree allocation ordinal (root = 0, children allocated
// consecutively), which the drive term depends on.
type seqCell struct {
	val      float32
	ord      int
	children []*seqCell
}

// verifyAdaptive recomputes the benchmark sequentially (two-copy
// semantics, identical float expression order) and compares every root's
// value and leaf count.
func verifyAdaptive(q *mesh.QuadPool, spec AdaptiveSpec) error {
	n := spec.N
	roots := make([]*seqCell, n*n)
	for i := range roots {
		roots[i] = &seqCell{}
	}
	fixed := make(map[int]bool)
	for _, p := range adaptiveElectrodes(spec) {
		roots[p[0]*n+p[1]].val = 100
		fixed[p[0]*n+p[1]] = true
	}
	alloc := make([]int, n*n)
	for i := range alloc {
		alloc[i] = 1
	}
	for it := 0; it < spec.Iters; it++ {
		oldVals := make([]float32, n*n)
		for r, c := range roots {
			oldVals[r] = c.val
		}
		type leafRef struct {
			c *seqCell
			d int
		}
		snapshot := func(c *seqCell) map[*seqCell]float32 {
			vals := map[*seqCell]float32{}
			var walk func(x *seqCell)
			walk = func(x *seqCell) {
				vals[x] = x.val
				for _, ch := range x.children {
					walk(ch)
				}
			}
			walk(c)
			return vals
		}
		for r, c := range roots {
			if fixed[r] {
				continue
			}
			i, j := r/n, r%n
			var sum float32
			cnt := 0
			if i > 0 {
				sum += oldVals[(i-1)*n+j]
				cnt++
			}
			if i < n-1 {
				sum += oldVals[(i+1)*n+j]
				cnt++
			}
			if j > 0 {
				sum += oldVals[i*n+j-1]
				cnt++
			}
			if j < n-1 {
				sum += oldVals[i*n+j+1]
				cnt++
			}
			navg := sum / float32(cnt)
			oldLeafVals := snapshot(c)
			var leaves []leafRef
			var collect func(x *seqCell, d int)
			collect = func(x *seqCell, d int) {
				if x.children == nil {
					leaves = append(leaves, leafRef{x, d})
					return
				}
				for _, ch := range x.children {
					collect(ch, d+1)
				}
			}
			collect(c, 0)
			var lsum float32
			for _, lf := range leaves {
				lv := oldLeafVals[lf.c]
				nv := relaxLeaf(lv, navg, lf.c.ord, it)
				lf.c.val = nv
				lsum += nv
				if abs32(navg-lv) > spec.SubdivThreshold &&
					lf.d < spec.MaxDepth && alloc[r]+4 <= mesh.SubtreeSlots(spec.MaxDepth) {
					lf.c.children = []*seqCell{
						{val: nv, ord: alloc[r]},
						{val: nv, ord: alloc[r] + 1},
						{val: nv, ord: alloc[r] + 2},
						{val: nv, ord: alloc[r] + 3},
					}
					alloc[r] += 4
				}
			}
			if len(leaves) > 1 {
				c.val = lsum / float32(len(leaves))
			}
		}
	}
	// Compare allocation counts and root values.
	for r := range roots {
		i, j := r/n, r%n
		if got := int(q.CountSeq(i, j)); got != alloc[r] {
			return fmt.Errorf("adaptive: root (%d,%d) allocated %d cells, want %d", i, j, got, alloc[r])
		}
		if got := q.Val.Peek(int(q.RootID(i, j))); !approxEq(got, roots[r].val) {
			return fmt.Errorf("adaptive: root (%d,%d) = %v, want %v", i, j, got, roots[r].val)
		}
	}
	return nil
}
