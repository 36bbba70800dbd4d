package main

import (
	"strings"
	"testing"
	"time"
)

// A block size above 256 bytes exceeds the per-element modified bitmask
// of the LCM directory.  The protocol records it as a config error (not
// a panic), every affected run fails — a grid cell or an ablation variant
// alike, since both build their machines from the same configuration — and
// lcmbench turns the failed runs into exit status 1 with one FAILED line
// each on stderr and no goroutine dump.
func TestBlockSizeConfigErrorExitsOne(t *testing.T) {
	for _, c := range []struct {
		selection string
		failed    int // runs on an LCM system
	}{
		{"-fig2", 12},  // six grid cells x {scc, mcc}
		{"-ablate", 8}, // 7.1's rsm-reduction, 7.4's scc and mcc, 7.5's five settings
	} {
		var out, errOut strings.Builder
		code := run([]string{c.selection, "-scale", "64", "-p", "2", "-blocksize", "512"}, &out, &errOut)
		if code != 1 {
			t.Fatalf("run(%s) = %d, want exit code 1\nstdout:\n%s\nstderr:\n%s", c.selection, code, out.String(), errOut.String())
		}
		lines := strings.Split(strings.TrimSuffix(errOut.String(), "\n"), "\n")
		if len(lines) != c.failed {
			t.Errorf("run(%s): %d lines on stderr, want %d:\n%s", c.selection, len(lines), c.failed, errOut.String())
		}
		for _, l := range lines {
			if !strings.HasPrefix(l, "FAILED ") || !strings.Contains(l, "block size 512 exceeds 256 bytes") {
				t.Errorf("run(%s): stderr line is not a config-error diagnostic: %q", c.selection, l)
			}
		}
		if strings.Contains(out.String()+errOut.String(), "goroutine ") {
			t.Errorf("run(%s) dumped goroutines:\n%s", c.selection, errOut.String())
		}
	}
}

// Unusable flags are rejected before any cell runs, with exit status 2
// and one line on stderr.
func TestBadBlockSizeFlagExitsTwo(t *testing.T) {
	type usage struct {
		args []string
		want string
	}
	cases := []usage{
		{[]string{"-blocksize", "48"}, "lcmbench: blocksize must be a power of two >= 8, got 48\n"},
		{[]string{"-scale", "0"}, "lcmbench: scale must be >= 1, got 0\n"},
		{[]string{"-cells", "Threshold", "-scale", "16", "-p", "-3"}, "lcmbench: p must be >= 1, got -3\n"},
		{[]string{"-cells", "Threshold", "-scale", "16", "-p", "0"}, "lcmbench: p must be >= 1, got 0\n"},
		// A machine larger than a trace event can name, and a Zipf skew
		// that collapses every KV operation onto one shard.
		{[]string{"-p", "16385"}, "lcmbench: p must be <= 16384, got 16385\n"},
		{[]string{"-kvskew", "NaN"}, "lcmbench: kvskew must be finite and >= 0, got NaN\n"},
		{[]string{"-kvskew", "Inf"}, "lcmbench: kvskew must be finite and >= 0, got +Inf\n"},
		// Links that finish before they start, and a link parameter the
		// uniform model would never read.
		{[]string{"-net", "fattree", "-linkbw", "-5"}, "lcmbench: linkbw and nilat must be >= 0, got -5 and 0\n"},
		{[]string{"-net", "fattree", "-nilat", "-7"}, "lcmbench: linkbw and nilat must be >= 0, got 0 and -7\n"},
		{[]string{"-linkbw", "3"}, "lcmbench: linkbw and nilat apply only to the fattree network\n"},
		{[]string{"-net", "torus"}, "lcmbench: net: unknown model \"torus\" (want uniform or fattree)\n"},
		{[]string{"-par", "4"}, "flag provided but not defined: -par\n"},
		{[]string{"-freerun"}, "flag provided but not defined: -freerun\n"},
		{[]string{"-chaos", "-recovery"}, "lcmbench: -chaos runs only its own campaign and cannot be combined with -recovery\n"},
	}
	// -netsweep, -chaos and -recovery each run only their own campaign.  A
	// second selection, or a sink the campaign would never write, used to
	// be dropped with exit status 0.
	for _, only := range []string{"-netsweep", "-chaos", "-recovery"} {
		for _, other := range [][]string{{"-cells", "Threshold"}, {"-table1"}, {"-fig2"}, {"-fig3"}, {"-ablate"},
			{"-sweeps"}, {"-json", "x.json"}, {"-detjson", "x.json"}} {
			cases = append(cases, usage{append([]string{only, "-scale", "64", "-p", "2"}, other...),
				"lcmbench: " + only + " runs only its own campaign and cannot be combined with " + other[0] + "\n"})
		}
	}
	// -ablate, alone or with -sweeps, runs no grid, so no sink would be
	// written.  Both used to exit 0 having written neither file.
	for _, sel := range [][]string{{"-ablate"}, {"-ablate", "-sweeps"}} {
		for _, sink := range [][]string{{"-json", "x.json"}, {"-detjson", "x.json"}} {
			cases = append(cases, usage{append(append([]string{"-scale", "64", "-p", "2"}, sel...), sink...),
				"lcmbench: -ablate runs no grid campaign and cannot be combined with " + sink[0] + "\n"})
		}
	}
	for _, c := range cases {
		var out, errOut strings.Builder
		if code := run(c.args, &out, &errOut); code != 2 || errOut.String() != c.want || out.Len() != 0 {
			t.Errorf("run(%v) = %d\nstdout: %q\nstderr: %q\nwant exit code 2, stderr %q", c.args, code, out.String(), errOut.String(), c.want)
		}
	}
}

// An unknown cell anywhere in the -cells list — a typo or a stray comma
// leaving an empty segment — is a usage error: exit status 2 before any
// cell runs, with a diagnostic naming the bad cell and the valid names.
func TestUnknownCellExitsTwo(t *testing.T) {
	for _, cells := range []string{"KV-mixed", "Stencil-static,nope", "Threshold,,KV-read"} {
		var out, errOut strings.Builder
		if code := run([]string{"-cells", cells, "-scale", "64", "-p", "2"}, &out, &errOut); code != 2 {
			t.Fatalf("run(-cells %s) = %d, want exit code 2\nstderr:\n%s", cells, code, errOut.String())
		}
		if !strings.Contains(errOut.String(), "unknown grid cell") ||
			!strings.Contains(errOut.String(), "want one of") {
			t.Errorf("run(-cells %s): stderr missing structured diagnostic:\n%s", cells, errOut.String())
		}
	}
}

// Unstructured divides 256 vertices by -scale: past 128 that used to leave
// one vertex (graph construction drew pairs of distinct vertices forever) or
// none (a division by zero and a goroutine dump).  Every scale now runs the
// floor-sized graph and returns, within a deadline per case.
func TestUnstructuredAtAnyScaleReturns(t *testing.T) {
	for _, scale := range []string{"128", "256", "512", "100000"} {
		var out, errOut strings.Builder
		code := make(chan int, 1)
		go func() {
			code <- run([]string{"-cells", "Unstructured", "-scale", scale, "-p", "8", "-verify"}, &out, &errOut)
		}()
		select {
		case c := <-code:
			if c != 0 || errOut.Len() != 0 || !strings.Contains(out.String(), "all benchmark results verified") {
				t.Errorf("run(-cells Unstructured -scale %s) = %d\nstdout:\n%s\nstderr:\n%s", scale, c, out.String(), errOut.String())
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("run(-cells Unstructured -scale %s) has not returned after 30 s", scale)
		}
	}
}

// A negative Zipf skew is rejected before anything runs.
func TestBadKVSkewExitsTwo(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-kvskew", "-1"}, &out, &errOut); code != 2 {
		t.Fatalf("run(-kvskew -1) = %d, want exit code 2", code)
	}
}

// The serving cells driven in process end to end, verified against the
// sequential KV reference, with the skew and reshard knobs exercised.
func TestKVCellsRunVerified(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-cells", "KV-read,KV-write", "-scale", "16", "-p", "8",
		"-verify", "-kvskew", "1.2", "-kvreshard", "2"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("run() = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "all benchmark results verified") {
		t.Errorf("stdout missing the verification verdict:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "KV-read") || !strings.Contains(out.String(), "KV-write") {
		t.Errorf("stdout missing the KV cells:\n%s", out.String())
	}
}

// A small grid driven in process end to end: a P=96 cell crosses the
// 64-bit word boundary of the directory's node sets and must still
// verify against the sequential references and exit 0.
func TestCrossWordGridRunsVerified(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-fig2", "-scale", "64", "-p", "96", "-verify"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("run() = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "all benchmark results verified") {
		t.Errorf("stdout missing the verification verdict:\n%s", out.String())
	}
}
