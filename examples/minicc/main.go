// A complete trip through the paper's pipeline: compile a C**-style
// parallel function from source text, let the compiler analyze its
// accesses and choose a lowering, then run it under both memory systems.
//
// The program is the paper's own running example (Section 4.2): a
// four-point stencil, plus a reduction that sums the mesh.  The compiler
// detects that every invocation writes its own element but reads
// neighbours, so under LCM it inserts flush/reconcile directives, and
// under the coherent baseline it generates two-copy code with a pointer
// swap (it proves the store unconditional).  A second, threshold-style
// function shows the conservative path: its store is conditional, so the
// two-copy lowering must copy the whole mesh every iteration.
//
// Run it with:
//
//	go run ./examples/minicc
package main

import (
	"fmt"
	"os"

	"lcm"
)

const stencilSrc = `
parallel stencil(A) {
    A[i][j] = (A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]) * 0.25;
    total %+= A[i][j];
}`

const thresholdSrc = `
parallel threshold(A) {
    let v = A[i][j];
    let nv = (A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]) * 0.25;
    if (abs(nv - v) > 0.05) {
        A[i][j] = nv;
    }
}`

const (
	size  = 96
	iters = 8
	procs = 16
)

func main() {
	run("stencil + reduction", stencilSrc)
	run("conditional threshold", thresholdSrc)
}

func run(title, src string) {
	prog, err := lcm.CompileCStar(src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compile: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("== %s ==\n", title)
	fmt.Printf("compiler analysis: writesOwnOnly=%v readsShared=%v dynamic=%v reductions=%d\n",
		prog.Summary.WritesOwnElementOnly, prog.Summary.ReadsSharedData,
		prog.Summary.DynamicStructure, len(prog.Fn.Reductions))

	init := func(i, j int) float32 { return float32((i*31+j*17)%97) / 9.7 }
	for _, sys := range []lcm.System{lcm.Copying, lcm.LCMmcc} {
		m := lcm.NewMachine(lcm.MachineConfig{Nodes: procs, System: sys})
		inst := prog.Instantiate(m, size, size, sys)
		m.Freeze()
		inst.Init(init)
		m.Run(func(n *lcm.Node) {
			_ = inst.RunNode(n, iters, lcm.StaticSchedule{})
		})
		if err := inst.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "minicc: %s under %s: %v\n", title, sys, err)
			os.Exit(1)
		}
		c := m.TotalCounters()
		fmt.Printf("  %-8s plan=%-7s  %14d cycles  %10d misses  %10d copied words\n",
			sys, inst.Plan.Mode, m.MaxClock(), c.Misses, c.CopiedWords)
		for _, rd := range prog.Fn.Reductions {
			var v float64
			m.Run(func(n *lcm.Node) {
				if n.ID == 0 {
					v = inst.Reduction(rd.Name).Value(n)
				}
				n.Barrier()
			})
			fmt.Printf("           reduction %s = %.3f\n", rd.Name, v)
		}
	}

	// Cross-check against the sequential reference.
	want, _ := prog.SeqApply(size, size, iters, init)
	m := lcm.NewMachine(lcm.MachineConfig{Nodes: procs, System: lcm.LCMmcc})
	inst := prog.Instantiate(m, size, size, lcm.LCMmcc)
	m.Freeze()
	inst.Init(init)
	m.Run(func(n *lcm.Node) { _ = inst.RunNode(n, iters, lcm.StaticSchedule{}) })
	if err := inst.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "minicc: verification run: %v\n", err)
		os.Exit(1)
	}
	for i := 0; i < size; i++ {
		for j := 0; j < size; j++ {
			if inst.Result(iters).Peek(i, j) != want[i][j] {
				fmt.Fprintf(os.Stderr, "MISMATCH at (%d,%d)\n", i, j)
				os.Exit(1)
			}
		}
	}
	fmt.Println("  verified bit-exactly against the sequential reference")
	fmt.Println()
}
