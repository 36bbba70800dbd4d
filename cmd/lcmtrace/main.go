// Command lcmtrace runs one benchmark under one memory system and prints a
// detailed breakdown: per-event-class counts, virtual-time composition,
// per-node statistics, and optionally the tail of the protocol event
// trace.  It is the debugging companion to cmd/lcmbench.
//
// Usage:
//
//	lcmtrace -w stencil|adaptive|threshold|unstructured
//	         [-sys copying|lcm-scc|lcm-mcc] [-sched static|dynamic]
//	         [-p N] [-scale N] [-verify] [-trace N]
//
// Examples:
//
//	lcmtrace -w stencil -sys lcm-mcc -sched dynamic -scale 8
//	lcmtrace -w threshold -sys lcm-scc -trace 40
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"lcm/internal/cstar"
	"lcm/internal/harness"
	"lcm/internal/stats"
	"lcm/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program with main's process concerns made explicit so
// tests can drive it in process.  It returns the exit code: 0 on success,
// 1 on a failed verification, 2 on unusable flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lcmtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	w := fs.String("w", "stencil", "workload: stencil, adaptive, threshold, unstructured")
	sysName := fs.String("sys", "lcm-mcc", "memory system: copying, lcm-scc, lcm-mcc")
	sched := fs.String("sched", "static", "partitioning: static or dynamic")
	p := fs.Int("p", 32, "simulated processors")
	scale := fs.Int("scale", 8, "divide problem sizes by this factor")
	verify := fs.Bool("verify", false, "check against the sequential reference")
	traceN := fs.Int("trace", 0, "dump the last N protocol events (0 = no trace)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg, err := harness.Tuple{P: *p, Scale: *scale}.Config()
	if err != nil {
		fmt.Fprintln(stderr, "lcmtrace:", err)
		return 2
	}
	cfg.Verify, cfg.TraceCap = *verify, *traceN
	sys, err := cstar.ParseSystem(*sysName)
	if err != nil {
		fmt.Fprintln(stderr, "lcmtrace:", err)
		return 2
	}
	// Threshold and Unstructured have no partitioning knob: their cells
	// are named by the workload alone.
	cell, err := harness.ParseCell(*w + "-" + *sched)
	if err != nil {
		cell, err = harness.ParseCell(*w)
	}
	if err != nil {
		fmt.Fprintf(stderr, "lcmtrace: unknown workload %q (with -sched %s)\n", *w, *sched)
		return 2
	}

	suite := harness.New(stdout)
	suite.Scale = *scale
	r := suite.Run(cell, sys, cfg)

	fmt.Fprintf(stdout, "%s under %s (%s partitioning, P=%d, scale 1/%d)\n\n",
		r.Workload, r.System, *sched, *p, *scale)
	fmt.Fprintf(stdout, "simulated time:      %16s cycles\n", stats.GroupInt(r.Cycles))
	fmt.Fprintf(stdout, "accesses:            %16s\n", stats.GroupInt(r.C.Hits))
	fmt.Fprintf(stdout, "cache misses:        %16s (%s remote, %s local fills)\n",
		stats.GroupInt(r.C.Misses), stats.GroupInt(r.C.RemoteMisses), stats.GroupInt(r.C.LocalFills))
	fmt.Fprintf(stdout, "upgrades:            %16s\n", stats.GroupInt(r.C.Upgrades))
	fmt.Fprintf(stdout, "invalidations sent:  %16s\n", stats.GroupInt(r.C.InvalidationsSent))
	fmt.Fprintf(stdout, "marks:               %16s\n", stats.GroupInt(r.C.Marks))
	fmt.Fprintf(stdout, "flushes:             %16s (%s words)\n",
		stats.GroupInt(r.C.Flushes), stats.GroupInt(r.C.WordsFlushed))
	fmt.Fprintf(stdout, "explicit copies:     %16s words\n", stats.GroupInt(r.C.CopiedWords))
	fmt.Fprintf(stdout, "barriers per node:   %16s\n", stats.GroupInt(r.C.Barriers/int64(*p)))
	fmt.Fprintf(stdout, "clean copies:        %16s home / %s local\n",
		stats.GroupInt(r.S.CleanCopiesHome), stats.GroupInt(r.S.CleanCopiesLocal))
	fmt.Fprintf(stdout, "blocks reconciled:   %16s\n", stats.GroupInt(r.S.Reconciles))
	fmt.Fprintf(stdout, "write conflicts:     %16s\n", stats.GroupInt(r.S.WriteConflicts))
	for k, v := range r.Extra {
		fmt.Fprintf(stdout, "%-20s %16.4f\n", k+":", v)
	}
	fmt.Fprintf(stdout, "\nper-node distribution:\n")
	fmt.Fprintf(stdout, "  clock:  %s\n", r.PerNodeClocks)
	fmt.Fprintf(stdout, "  misses: %s\n", r.PerNodeMisses)

	if r.Trace != nil {
		fmt.Fprintf(stdout, "\nlast protocol events (merged by virtual time):\n")
		kinds := []trace.Kind{trace.ReadMiss, trace.WriteMiss, trace.Upgrade,
			trace.Mark, trace.Flush, trace.Invalidate, trace.Commit, trace.Conflict}
		fmt.Fprintf(stdout, "retained event mix: ")
		for _, k := range kinds {
			if c := r.Trace.CountKind(k); c > 0 {
				fmt.Fprintf(stdout, "%s=%d ", k, c)
			}
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, r.Trace.Dump(*traceN))
	}

	if *verify {
		if r.Err != nil {
			fmt.Fprintf(stderr, "\nVERIFICATION FAILED: %v\n", r.Err)
			return 1
		}
		fmt.Fprintln(stdout, "\nresult verified against the sequential reference")
	}
	return 0
}
