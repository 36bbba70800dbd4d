package main

import (
	"strings"
	"testing"
)

// Unusable flags are rejected before anything is explored: exit status 2
// and one line on stderr.
func TestBadInputsExitTwo(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-protocol", "mesi"}, "lcmcheck: -protocol: unknown system \"mesi\" (want copying, lcm-scc|scc or lcm-mcc|mcc), or all\n"},
		{[]string{"-script", "nope"}, "lcmcheck: no script named \"nope\"\n"},
		{[]string{"-nodes", "5"}, "lcmcheck: -nodes must be 2 or 3\n"},
		{[]string{"-blocks", "9"}, "lcmcheck: -blocks must be 2-4\n"},
		{[]string{"extra"}, "lcmcheck: unexpected arguments [extra]\n"},
		{[]string{"-replay", "0,1"}, "lcmcheck: -replay needs a single -protocol and -script\n"},
		{[]string{"-replay", "0,1", "-protocol", "scc"}, "lcmcheck: -replay needs a single -protocol and -script\n"},
		{[]string{"-replay", "0,x", "-protocol", "scc", "-script", "mixed"}, "lcmcheck: bad path element \"x\"\n"},
		{[]string{"-freerun"}, "flag provided but not defined: -freerun\n"},
	} {
		var out, errOut strings.Builder
		if code := run(c.args, &out, &errOut); code != 2 || !strings.HasPrefix(errOut.String(), c.want) || out.Len() != 0 {
			t.Errorf("run(%v) = %d\nstdout: %q\nstderr: %q\nwant exit code 2, stderr starting %q", c.args, code, out.String(), errOut.String(), c.want)
		}
	}
}

// A bounded exploration and a replay of the canonical path both finish
// clean, with and without an injected kill.
func TestExploreAndReplayClean(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-script", "pingpong", "-protocol", "mcc", "-max-schedules", "40"}, "lcm-mcc  pingpong   2n x 2b:     40 schedules"},
		{[]string{"-script", "mixed", "-kill", "-max-schedules", "10"}, "copying  mixed      2n x 2b:     10 schedules"},
		{[]string{"-script", "pingpong", "-protocol", "lcm-scc", "-replay", "0,0"}, "replay lcm-scc/pingpong path [0 0]: clean\n"},
	} {
		var out, errOut strings.Builder
		if code := run(c.args, &out, &errOut); code != 0 || !strings.Contains(out.String(), c.want) || errOut.Len() != 0 {
			t.Errorf("run(%v) = %d\nstdout: %q\nstderr: %q\nwant exit code 0 and %q", c.args, code, out.String(), errOut.String(), c.want)
		}
	}
}
