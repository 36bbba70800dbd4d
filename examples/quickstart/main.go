// Quickstart: a five-minute tour of the lcm library.
//
// It builds a 16-processor simulated machine running the LCM-mcc memory
// system, relaxes a small mesh with a C**-style parallel function, sums
// the mesh with a reduction variable, and prints what the memory system
// did: misses, clean copies, flushes, reconciliations and virtual time.
//
// Run it with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"lcm"
)

const (
	nodes = 16
	size  = 128
	iters = 10
)

func main() {
	// 1. Build a machine.  LCMmcc is the paper's best-performing
	//    variant: clean copies at every marking processor.
	m := lcm.NewMachine(lcm.MachineConfig{Nodes: nodes, System: lcm.LCMmcc})

	// 2. Allocate aggregates in the simulated global address space.
	//    The mesh is loosely coherent: parallel invocations that write
	//    it get private copies, reconciled at the end of the phase.
	mesh := lcm.NewMatrixF32(m, "mesh", size, size, lcm.LooselyCoherent(), lcm.Interleaved)
	total := lcm.NewReduceF64(m, "total", lcm.LCMmcc)
	m.Freeze()

	// 3. Initialize sequentially (home image writes are free).
	for j := 0; j < size; j++ {
		mesh.Poke(0, j, 100) // hot top edge
	}

	// 4. "Compile" the parallel function: each invocation writes its own
	//    element and reads neighbours, so the planner inserts
	//    flush-between-invocations and relies on copy-on-write.
	plan := lcm.Lower(lcm.AccessSummary{
		WritesOwnElementOnly: true,
		ReadsSharedData:      true,
	}, lcm.LCMmcc)
	fmt.Printf("compiler plan: mode=%v flushBetweenInvocations=%v\n\n",
		plan.Mode, plan.FlushBetweenInvocations)

	// 5. Run the SPMD program: every node executes its share of the
	//    invocations, then joins the reconciliation barrier.
	inner := size - 2
	m.Run(func(n *lcm.Node) {
		for it := 0; it < iters; it++ {
			lcm.ForEach(n, lcm.StaticSchedule{}, plan, it, inner*inner, func(idx int) {
				i, j := 1+idx/inner, 1+idx%inner
				v := (mesh.Get(n, i-1, j) + mesh.Get(n, i+1, j) +
					mesh.Get(n, i, j-1) + mesh.Get(n, i, j+1)) / 4
				mesh.Set(n, i, j, v)
			})
			lcm.EndParallel(n)
		}
		// A reduction: total %+= mesh[i][j].  Each node accumulates a
		// private copy; the reconciliation function sums them.
		lcm.ForEach(n, lcm.StaticSchedule{}, plan, 0, size*size, func(idx int) {
			total.Add(n, float64(mesh.Get(n, idx/size, idx%size)))
		})
		total.Reduce(n)
	})

	// 6. Inspect results and memory-system behaviour.
	var sum float64
	m.Run(func(n *lcm.Node) {
		if n.ID == 0 {
			sum = total.Value(n)
		}
		n.Barrier()
	})
	c := m.TotalCounters()
	s := m.Shared
	fmt.Printf("mesh total after %d iterations: %.2f\n\n", iters, sum)
	fmt.Printf("simulated time:     %12d cycles\n", m.MaxClock())
	fmt.Printf("accesses:           %12d\n", c.Hits)
	fmt.Printf("cache misses:       %12d (%d remote, %d local fills)\n",
		c.Misses, c.RemoteMisses, c.LocalFills)
	fmt.Printf("marks / flushes:    %12d / %d\n", c.Marks, c.Flushes)
	fmt.Printf("clean copies:       %12d home, %d local (mcc)\n",
		s.CleanCopiesHome, s.CleanCopiesLocal)
	fmt.Printf("blocks reconciled:  %12d\n", s.Reconciles)
	fmt.Printf("write conflicts:    %12d (disjoint writes: should be 0)\n", s.WriteConflicts)
	if s.WriteConflicts != 0 {
		fmt.Fprintln(os.Stderr, "quickstart: unexpected write conflicts in a disjoint-write program")
		os.Exit(1)
	}
}
