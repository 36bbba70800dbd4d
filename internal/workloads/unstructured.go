package workloads

import (
	"fmt"

	"lcm/internal/core"
	"lcm/internal/cstar"
	"lcm/internal/graph"
	"lcm/internal/memsys"
	"lcm/internal/tempest"
)

// UnstructuredSpec parameterizes the Unstructured benchmark of Section
// 6.3: relaxation over an irregular graph.  The graph is built once,
// statically partitioned into contiguous vertex ranges, and — because the
// topology is random — has many cross-processor edges.
//
// Paper configuration: 256 vertices, 1024 edges, 512 iterations.
type UnstructuredSpec struct {
	Nodes int
	Edges int
	Iters int
	Seed  uint64
	// Stride pads each vertex record to Stride float32 words; the
	// paper's graph nodes are records, not bare floats, so the default
	// of 8 gives one 32-byte block per vertex.
	Stride int
}

// PaperUnstructured returns the paper's configuration.
func PaperUnstructured() UnstructuredSpec {
	return UnstructuredSpec{Nodes: 256, Edges: 1024, Iters: 512, Seed: 42, Stride: 8}
}

// unstructuredSummary: every vertex updates itself reading irregular
// neighbours; statically partitioned, all vertices written every
// iteration.
var unstructuredSummary = cstar.AccessSummary{WritesOwnElementOnly: true, ReadsSharedData: true}

// relaxVertex is the per-vertex update shared with the reference.  The
// drive term is a small time-varying source that keeps the field moving
// for all 512 iterations (the paper's graph shows essentially constant
// per-iteration communication, i.e. no convergence within the run).
func relaxVertex(v, navg float32, vid, it int) float32 {
	return (v+navg)*0.5 + float32((vid+it)%5-2)*0.01
}

// RunUnstructured executes the Unstructured benchmark.
func RunUnstructured(sys cstar.System, spec UnstructuredSpec, cfg Config) Result {
	cfg = cfg.Norm()
	if spec.Stride == 0 {
		spec.Stride = 8
	}
	res := Result{Workload: "Unstructured", System: sys, Extra: map[string]float64{}}
	topo, err := graph.Build(spec.Nodes, spec.Edges, spec.Seed)
	if err != nil {
		res.Err = err
		return res
	}
	m := cfg.Machine(sys)
	// Vertex values: one padded record per vertex, block-partitioned so a
	// node's vertices are homed locally (owner-compute layout).
	val := cstar.NewVectorF32(m, "g.val", spec.Nodes*spec.Stride, cstar.DataPolicy(sys), memsys.Blocked)
	var old *cstar.VectorF32
	if sys == cstar.Copying {
		// "To ensure C** semantics without LCM support, the program
		// maintains an extra copy of the nodes.  No additional copying
		// is necessary since all nodes are updated in each iteration."
		old = cstar.NewVectorF32(m, "g.old", spec.Nodes*spec.Stride, core.Coherent(), memsys.Blocked)
	}
	offs := cstar.NewVectorI32(m, "g.off", spec.Nodes+1, core.Coherent(), memsys.Interleaved)
	tgts := cstar.NewVectorI32(m, "g.tgt", len(topo.Targets), core.Coherent(), memsys.Interleaved)
	m.Freeze()

	for i, o := range topo.Offsets {
		offs.Poke(i, o)
	}
	for i, w := range topo.Targets {
		tgts.Poke(i, w)
	}
	initV := func(v int) float32 { return float32((v*7919)%100) / 10 }
	for v := 0; v < spec.Nodes; v++ {
		val.Poke(v*spec.Stride, initV(v))
		if old != nil {
			old.Poke(v*spec.Stride, initV(v))
		}
	}
	res.Extra["cross_edges"] = float64(topo.CrossEdges(cfg.P))

	plan := cstar.Lower(unstructuredSummary, sys)
	sched := cstar.StaticSchedule{}

	// Per-node scratch for the span reads of the gather loop: the offset
	// pair and the vertex's whole edge-target range stream through the
	// span engine (the gather over src stays scalar — it is irregular by
	// construction).  Accounting matches the element-by-element loop.
	maxDeg := 0
	for v := 0; v < spec.Nodes; v++ {
		if d := int(topo.Offsets[v+1] - topo.Offsets[v]); d > maxDeg {
			maxDeg = d
		}
	}
	tgtScratch := make([][]int32, cfg.P)
	for i := range tgtScratch {
		tgtScratch[i] = make([]int32, maxDeg)
	}

	runErr := m.RunErr(func(n *tempest.Node) {
		cur, prev := val, old
		for it := 0; it < spec.Iters; it++ {
			src := cur
			if plan.Mode == cstar.ModeCopying {
				src = prev
			}
			cstar.ForEach(n, sched, plan, it, spec.Nodes, func(v int) {
				var pair [2]int32
				offs.GetSpan(n, v, pair[:])
				lo, hi := pair[0], pair[1]
				tb := tgtScratch[n.ID][:hi-lo]
				tgts.GetSpan(n, int(lo), tb)
				var sum float32
				for _, w := range tb {
					sum += src.Get(n, int(w)*spec.Stride)
				}
				navg := sum / float32(hi-lo)
				cur.Set(n, v*spec.Stride, relaxVertex(src.Get(n, v*spec.Stride), navg, v, it))
				n.Compute(int64(hi-lo) + 2)
			})
			cstar.EndParallel(n)
			if plan.Mode == cstar.ModeCopying {
				cur, prev = prev, cur
			}
		}
	})
	if runErr != nil {
		// The machine is poisoned (a node died or the watchdog fired);
		// report the structured error without reading further state.
		res.Err = runErr
		return res
	}
	finish(m, &res)

	if cfg.Verify {
		final := val
		if sys == cstar.Copying && spec.Iters%2 == 0 {
			final = old
		}
		if res.Err == nil {
			res.Err = verifyUnstructured(final, topo, spec, initV)
		}
	}
	return res
}

// verifyUnstructured recomputes the relaxation sequentially and compares.
func verifyUnstructured(got *cstar.VectorF32, topo *graph.Topology, spec UnstructuredSpec, initV func(int) float32) error {
	cur := make([]float32, spec.Nodes)
	old := make([]float32, spec.Nodes)
	for v := range cur {
		cur[v] = initV(v)
	}
	for it := 0; it < spec.Iters; it++ {
		cur, old = old, cur
		for v := 0; v < spec.Nodes; v++ {
			var sum float32
			lo, hi := topo.Offsets[v], topo.Offsets[v+1]
			for k := lo; k < hi; k++ {
				sum += old[topo.Targets[k]]
			}
			cur[v] = relaxVertex(old[v], sum/float32(hi-lo), v, it)
		}
	}
	for v := 0; v < spec.Nodes; v++ {
		if !approxEq(got.Peek(v*spec.Stride), cur[v]) {
			return fmt.Errorf("unstructured: v%d = %v, want %v", v, got.Peek(v*spec.Stride), cur[v])
		}
	}
	return nil
}
