package main

import (
	"path/filepath"
	"strings"
	"testing"
)

const stencilSrc = `parallel f(A) { A[i][j] = A[i][j-1] * 0.5; }`

// Unusable arguments exit 2 before anything is printed; a program that
// does not compile, or faults when run, exits 1.  Both say why on stderr.
func TestBadInputs(t *testing.T) {
	for _, c := range []struct {
		args []string
		src  string
		code int
		want string
	}{
		{[]string{"-sys", "mesi"}, stencilSrc, 2, "lcmcc: unknown system \"mesi\" (want copying, lcm-scc|scc or lcm-mcc|mcc)\n"},
		{[]string{filepath.Join(t.TempDir(), "missing.cstar")}, "", 2, "lcmcc: open "},
		{[]string{"-freerun"}, stencilSrc, 2, "flag provided but not defined: -freerun\n"},
		{[]string{"-run", "-rows", "0"}, stencilSrc, 2, "lcmcc: -rows, -cols and -p must be >= 1 and -iters >= 0\n"},
		{[]string{"-run", "-rows", "-3"}, stencilSrc, 2, "lcmcc: -rows, -cols and -p must be >= 1 and -iters >= 0\n"},
		{[]string{"-run", "-cols", "0"}, stencilSrc, 2, "lcmcc: -rows, -cols and -p must be >= 1 and -iters >= 0\n"},
		{[]string{"-run", "-p", "-4"}, stencilSrc, 2, "lcmcc: -rows, -cols and -p must be >= 1 and -iters >= 0\n"},
		{[]string{"-run", "-p", "0"}, stencilSrc, 2, "lcmcc: -rows, -cols and -p must be >= 1 and -iters >= 0\n"},
		{[]string{"-run", "-iters", "-1"}, stencilSrc, 2, "lcmcc: -rows, -cols and -p must be >= 1 and -iters >= 0\n"},
		{[]string{"-run"}, `parallel f(A) { A[i-5][j] = A[i][j]; }`, 1, "lcmcc: lang: row subscript"},
		{nil, `parallel`, 1, "lcmcc: "},
	} {
		var out, errOut strings.Builder
		code := run(c.args, strings.NewReader(c.src), &out, &errOut)
		if code != c.code || !strings.HasPrefix(errOut.String(), c.want) || (c.code == 2 && out.Len() != 0) {
			t.Errorf("run(%v) on %q = %d\nstdout: %q\nstderr: %q\nwant exit code %d, stderr starting %q", c.args, c.src, code, out.String(), errOut.String(), c.code, c.want)
		}
	}
}

// The analysis alone, then a run on the simulated machine under either
// spelling of a system name.
func TestCompileAndRun(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "lowering per memory system:"},
		{[]string{"-run", "-sys", "lcm-scc", "-rows", "16", "-cols", "16", "-iters", "2", "-p", "4"}, "ran 2 iterations on 16x16 under lcm-scc:"},
		{[]string{"-run", "-sys", "mcc", "-rows", "16", "-cols", "16", "-iters", "2", "-p", "4"}, "ran 2 iterations on 16x16 under lcm-mcc:"},
	} {
		var out, errOut strings.Builder
		if code := run(c.args, strings.NewReader(stencilSrc), &out, &errOut); code != 0 || !strings.Contains(out.String(), c.want) || errOut.Len() != 0 {
			t.Errorf("run(%v) = %d\nstdout: %q\nstderr: %q\nwant exit code 0 and %q", c.args, code, out.String(), errOut.String(), c.want)
		}
	}
}
