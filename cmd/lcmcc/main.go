// Command lcmcc is the mini C** compiler driver: it compiles a parallel
// function from a source file (or stdin), reports the access analysis and
// the lowering chosen for each memory system, and optionally runs the
// program on the simulated machine.
//
// Usage:
//
//	lcmcc [-run] [-rows N] [-cols N] [-iters N] [-p N]
//	      [-sys copying|lcm-scc|lcm-mcc] [file.cstar]
//
// Examples:
//
//	echo 'parallel f(A) { A[i][j] = A[i][j-1] * 0.5; }' | lcmcc
//	lcmcc -run -sys lcm-mcc -rows 64 -cols 64 -iters 10 prog.cstar
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"lcm"
	"lcm/internal/cstar"
	"lcm/internal/lang"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the whole program with main's process concerns made explicit so
// tests can drive it in process.  It returns the exit code: 0 on success,
// 1 when the program does not compile or run, 2 on unusable arguments.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lcmcc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	execute := fs.Bool("run", false, "execute the program on the simulated machine")
	printAST := fs.Bool("print", false, "print the parsed function in canonical form")
	rows := fs.Int("rows", 64, "aggregate rows")
	cols := fs.Int("cols", 64, "aggregate columns")
	iters := fs.Int("iters", 10, "iterations")
	p := fs.Int("p", 16, "simulated processors")
	sysName := fs.String("sys", "lcm-mcc", "memory system for -run: copying, lcm-scc, lcm-mcc")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *rows < 1 || *cols < 1 || *p < 1 || *iters < 0 {
		fmt.Fprintln(stderr, "lcmcc: -rows, -cols and -p must be >= 1 and -iters >= 0")
		return 2
	}
	sys, err := cstar.ParseSystem(*sysName)
	if err != nil {
		fmt.Fprintln(stderr, "lcmcc:", err)
		return 2
	}

	src, err := readSource(fs.Arg(0), stdin)
	if err != nil {
		fmt.Fprintln(stderr, "lcmcc:", err)
		return 2
	}

	prog, err := lcm.CompileCStar(src)
	if err != nil {
		fmt.Fprintln(stderr, "lcmcc:", err)
		return 1
	}

	if *printAST {
		fmt.Fprint(stdout, lang.Format(prog.Fn))
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "parallel function %q over aggregate %q (rank %d)\n\n",
		prog.Fn.Name, prog.Fn.Agg, prog.Fn.Rank)
	fmt.Fprintln(stdout, "access analysis:")
	fmt.Fprintf(stdout, "  writes own element only: %v\n", prog.Summary.WritesOwnElementOnly)
	fmt.Fprintf(stdout, "  reads shared data:       %v\n", prog.Summary.ReadsSharedData)
	fmt.Fprintf(stdout, "  dynamic subscripts:      %v\n", prog.Summary.DynamicStructure)
	fmt.Fprintf(stdout, "  reductions:              %d", len(prog.Fn.Reductions))
	for _, rd := range prog.Fn.Reductions {
		fmt.Fprintf(stdout, "  %s (%v)", rd.Name, rd.Op)
	}
	fmt.Fprintln(stdout)

	fmt.Fprintln(stdout, "\nlowering per memory system:")
	for _, sys := range []lcm.System{lcm.Copying, lcm.LCMscc, lcm.LCMmcc} {
		plan := lcm.Lower(prog.Summary, sys)
		fmt.Fprintf(stdout, "  %-8s mode=%-8v flushBetweenInvocations=%v\n",
			sys, plan.Mode, plan.FlushBetweenInvocations)
	}

	if !*execute {
		return 0
	}

	m := lcm.NewMachine(lcm.MachineConfig{Nodes: *p, System: sys})
	inst := prog.Instantiate(m, *rows, *cols, sys)
	if err := m.FreezeErr(); err != nil {
		fmt.Fprintln(stderr, "lcmcc:", err)
		return 1
	}
	inst.Init(func(i, j int) float32 { return float32((i*31+j*17)%97) / 9.7 })
	err = m.RunErr(func(n *lcm.Node) {
		_ = inst.RunNode(n, *iters, lcm.StaticSchedule{})
	})
	// RunNode returns the same first-fault error on every node; report it
	// once rather than P times.
	if err = errors.Join(err, inst.Err()); err != nil {
		fmt.Fprintln(stderr, "lcmcc:", err)
		return 1
	}

	c := m.TotalCounters()
	fmt.Fprintf(stdout, "\nran %d iterations on %dx%d under %v:\n", *iters, *rows, *cols, sys)
	fmt.Fprintf(stdout, "  simulated time: %d cycles\n", m.MaxClock())
	fmt.Fprintf(stdout, "  cache misses:   %d (%d remote)\n", c.Misses, c.RemoteMisses)
	fmt.Fprintf(stdout, "  marks/flushes:  %d/%d\n", c.Marks, c.Flushes)
	fmt.Fprintf(stdout, "  copied words:   %d\n", c.CopiedWords)
	for _, rd := range prog.Fn.Reductions {
		var v float64
		m.Run(func(n *lcm.Node) {
			if n.ID == 0 {
				v = inst.Reduction(rd.Name).Value(n)
			}
			n.Barrier()
		})
		fmt.Fprintf(stdout, "  reduction %s = %g\n", rd.Name, v)
	}
	return 0
}

// readSource loads the program text from a file, or stdin when no path is
// given.
func readSource(path string, stdin io.Reader) (string, error) {
	if path == "" {
		b, err := io.ReadAll(stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}
