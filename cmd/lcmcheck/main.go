// Command lcmcheck model-checks the coherence protocols: it enumerates
// the interleavings of small scripted configurations (2-3 nodes, 2
// blocks) under the deterministic scheduler and asserts the safety
// properties — single writer per epoch, directory/tag agreement, no lost
// updates across reconciliation, LCM flush/commit pairing — at every
// scheduling point and at the end of every run (see internal/check).
//
// Usage:
//
//	lcmcheck [-protocol copying|scc|mcc|all] [-nodes N] [-blocks N]
//	         [-script NAME] [-max-schedules N] [-nosleep] [-kill]
//	         [-replay PATH -protocol SYS -script NAME]
//
// -kill injects a recoverable node crash (checkpoint/restart enabled)
// into every explored run, extending the safety guarantee across crash
// recovery: restarts perturb the virtual clocks, so the search also
// covers the interleavings around the crash point.
//
// With no flags it sweeps every canned script for every protocol at 2
// nodes x 2 blocks to exhaustion.  A violation prints the replayable
// decision path and the protocol event trace of the failing run, and the
// exit status is 1; -replay re-executes one such path (canonical choices
// beyond the prefix) and dumps its trace.
//
// Exit status: 0 when every exploration finishes clean, 1 on a
// violation, 2 on usage errors.  An exploration stopped by
// -max-schedules is reported as such but is not a failure; run without
// the bound for an exhaustiveness guarantee.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"lcm/internal/check"
	"lcm/internal/cstar"
	"lcm/internal/fault"
)

// killPlan is the canned crash plan behind -kill: node 1 dies at every
// second protocol fault, twice, and restarts from its barrier checkpoint.
func killPlan() *fault.Plan {
	return &fault.Plan{
		Seed: 0x6b111, KillNode: 1, KillAfter: 2, KillCount: 2, Recover: true,
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program with main's process concerns made explicit so
// tests can drive it in process.  It returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lcmcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	protocol := fs.String("protocol", "all", "protocol to check: copying, scc, mcc or all")
	nodes := fs.Int("nodes", 2, "simulated nodes (2-3)")
	blocks := fs.Int("blocks", 2, "coherence blocks in the shared vector")
	scriptName := fs.String("script", "", "check only this canned script (empty = all; see internal/check Scripts)")
	maxSchedules := fs.Int("max-schedules", 0, "bound the interleavings explored per configuration (0 = exhaust the tree)")
	noSleep := fs.Bool("nosleep", false, "disable the sleep-set reduction (slower, fully exhaustive)")
	kill := fs.Bool("kill", false, "inject a recoverable node kill (node 1, every 2nd protocol fault, twice) with checkpoint/restart enabled, model-checking crash recovery across interleavings")
	replay := fs.String("replay", "", "replay one decision path (comma-separated indices) instead of exploring")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "lcmcheck: "+format+"\n", args...)
		return 2
	}
	if fs.NArg() != 0 {
		return usage("unexpected arguments %v", fs.Args())
	}
	if *nodes < 2 || *nodes > 3 {
		return usage("-nodes must be 2 or 3")
	}
	if *blocks < 2 || *blocks > 4 {
		return usage("-blocks must be 2-4")
	}
	systems := []cstar.System{cstar.Copying, cstar.LCMscc, cstar.LCMmcc}
	if *protocol != "all" {
		sys, err := cstar.ParseSystem(*protocol)
		if err != nil {
			return usage("-protocol: %v, or all", err)
		}
		systems = []cstar.System{sys}
	}
	base := check.Config{Nodes: *nodes, Blocks: *blocks, MaxSchedules: *maxSchedules, NoSleep: *noSleep}
	if *kill {
		base.Faults = killPlan()
	}

	if *replay != "" {
		path, err := check.ParsePath(*replay)
		if err != nil {
			return usage("%v", err)
		}
		scripts, err := check.Select(*nodes, *blocks, *scriptName)
		if err != nil {
			return usage("%v", err)
		}
		if len(systems) != 1 || len(scripts) != 1 {
			return usage("-replay needs a single -protocol and -script")
		}
		base.System, base.Script = systems[0], scripts[0]
		vio, dump, err := check.Replay(base, path)
		if err != nil {
			return usage("%v", err)
		}
		if vio != nil {
			fmt.Fprintf(stdout, "replay %v/%s path %v: VIOLATION\n%v\n%s\n",
				base.System, base.Script.Name, path, vio.Err, dump)
			return 1
		}
		fmt.Fprintf(stdout, "replay %v/%s path %v: clean\n", base.System, base.Script.Name, path)
		return 0
	}

	start := time.Now()
	failed := false
	err := check.ExploreAll(base, systems, *scriptName, func(cfg check.Config, res check.Result) {
		status := "exhausted"
		if !res.Exhausted {
			status = "stopped at bound"
		}
		fmt.Fprintf(stdout, "%-8s %-10s %dn x %db: %6d schedules, %6d pruned, %s\n",
			cfg.System, cfg.Script.Name, *nodes, *blocks, res.Schedules, res.Pruned, status)
		if res.Violation != nil {
			killFlag := ""
			if *kill {
				killFlag = " -kill"
			}
			fmt.Fprintf(stdout, "VIOLATION %v/%s: %v\n  replay: lcmcheck -protocol %v -script %s -nodes %d -blocks %d%s -replay %q\n%s\n",
				cfg.System, cfg.Script.Name, res.Violation.Err, cfg.System, cfg.Script.Name, *nodes, *blocks,
				killFlag, pathString(res.Violation.Path), res.Violation.Trace)
			failed = true
		}
	})
	if err != nil {
		return usage("%v", err)
	}
	fmt.Fprintf(stdout, "total wall time: %s\n", time.Since(start).Round(time.Millisecond))
	if failed {
		return 1
	}
	return 0
}

func pathString(path []int) string {
	s := ""
	for i, d := range path {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(d)
	}
	return s
}
