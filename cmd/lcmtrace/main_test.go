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
		{[]string{"-sys", "mesi"}, "lcmtrace: unknown system \"mesi\" (want copying, lcm-scc|scc or lcm-mcc|mcc)\n"},
		{[]string{"-p", "0"}, "lcmtrace: p must be >= 1, got 0\n"},
		{[]string{"-scale", "0"}, "lcmtrace: scale must be >= 1, got 0\n"},
		{[]string{"-freerun"}, "flag provided but not defined: -freerun\n"},
	} {
		var out, errOut strings.Builder
		if code := run(c.args, &out, &errOut); code != 2 || !strings.HasPrefix(errOut.String(), c.want) || out.Len() != 0 {
			t.Errorf("run(%v) = %d\nstdout: %q\nstderr: %q\nwant exit code 2, stderr starting %q", c.args, code, out.String(), errOut.String(), c.want)
		}
	}
}

// One verified run with a trace, under each spelling of a system name and
// for a workload with and without a partitioning knob.
func TestTraceRunVerified(t *testing.T) {
	for _, args := range [][]string{
		{"-w", "stencil", "-sched", "dynamic", "-sys", "lcm-mcc"},
		{"-w", "threshold", "-sys", "scc"},
	} {
		var out, errOut strings.Builder
		code := run(append(args, "-scale", "32", "-p", "4", "-verify", "-trace", "5"), &out, &errOut)
		if code != 0 {
			t.Fatalf("run(%v) = %d, want 0\nstdout:\n%s\nstderr:\n%s", args, code, out.String(), errOut.String())
		}
		for _, want := range []string{"simulated time:", "last protocol events", "result verified against the sequential reference"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("run(%v): stdout missing %q:\n%s", args, want, out.String())
			}
		}
	}
}
