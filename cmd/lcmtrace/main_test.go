package main

import (
	"strings"
	"testing"
)

// Unusable flags are rejected before anything runs: exit status 2 and one
// line on stderr.
func TestBadInputsExitTwo(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-w", "mandelbrot"}, "lcmtrace: unknown workload \"mandelbrot\" (with -sched static)\n"},
		{[]string{"-w", "stencil", "-sched", "guided"}, "lcmtrace: unknown workload \"stencil\" (with -sched guided)\n"},
		// A workload without a partitioning knob takes no -sched at all.
		{[]string{"-w", "threshold", "-sched", "dynamic"}, "lcmtrace: workload \"threshold\" has no partitioning knob (drop -sched dynamic)\n"},
		{[]string{"-w", "threshold", "-sched", "bogus"}, "lcmtrace: workload \"threshold\" has no partitioning knob (drop -sched bogus)\n"},
		{[]string{"-sys", "mesi"}, "lcmtrace: unknown system \"mesi\" (want copying, lcm-scc|scc or lcm-mcc|mcc)\n"},
		{[]string{"-p", "0"}, "lcmtrace: p must be >= 1, got 0\n"},
		{[]string{"-scale", "0"}, "lcmtrace: scale must be >= 1, got 0\n"},
		{[]string{"-freerun"}, "flag provided but not defined: -freerun\n"},
		// A negative ring traces nothing; a huge one would be allocated
		// whole before the run.
		{[]string{"-trace", "-1"}, "lcmtrace: trace must be in [0, 524288] at p 32 (a ring of at most 16777216 events), got -1\n"},
		{[]string{"-p", "4", "-trace", "4194305"}, "lcmtrace: trace must be in [0, 4194304] at p 4 (a ring of at most 16777216 events), got 4194305\n"},
		{[]string{"-trace", "9223372036854775807"}, "lcmtrace: trace must be in [0, 524288] at p 32 (a ring of at most 16777216 events), got 9223372036854775807\n"},
	} {
		var out, errOut strings.Builder
		if code := run(c.args, &out, &errOut); code != 2 || !strings.HasPrefix(errOut.String(), c.want) || out.Len() != 0 {
			t.Errorf("run(%v) = %d\nstdout: %q\nstderr: %q\nwant exit code 2, stderr starting %q", c.args, code, out.String(), errOut.String(), c.want)
		}
	}
}

// One verified run with a trace, under each spelling of a system name and
// for a workload with and without a partitioning knob; the header names the
// cell that ran.  A trace does not stop LCM's handlers running ahead, and the
// output says so; nor does the Copying lowering, whose reads of the old copy
// post.
func TestTraceRunVerified(t *testing.T) {
	for _, tc := range []struct {
		args             []string
		header, runAhead string
	}{
		{[]string{"-w", "stencil", "-sched", "dynamic", "-sys", "lcm-mcc"}, "Stencil-dynamic under lcm-mcc (P=4, scale 1/32)\n", "run-ahead on:"},
		{[]string{"-w", "threshold", "-sys", "scc"}, "Threshold under lcm-scc (P=4, scale 1/32)\n", "run-ahead on:"},
		{[]string{"-w", "threshold", "-sys", "copying"}, "Threshold under copying (P=4, scale 1/32)\n", "run-ahead on:"},
	} {
		args := tc.args
		var out, errOut strings.Builder
		code := run(append(args, "-scale", "32", "-p", "4", "-verify", "-trace", "5"), &out, &errOut)
		if code != 0 {
			t.Fatalf("run(%v) = %d, want 0\nstdout:\n%s\nstderr:\n%s", args, code, out.String(), errOut.String())
		}
		if !strings.HasPrefix(out.String(), tc.header) {
			t.Errorf("run(%v): stdout does not start with %q:\n%s", args, tc.header, out.String())
		}
		for _, want := range []string{"simulated time:", tc.runAhead, "last protocol events (in execution order)", "result verified against the sequential reference"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("run(%v): stdout missing %q:\n%s", args, want, out.String())
			}
		}
	}
}
