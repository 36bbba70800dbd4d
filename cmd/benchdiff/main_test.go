package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lcm/internal/harness"
)

// seedFile is a two-record trajectory with every class of field set.
func seedFile() harness.BenchFile {
	return harness.BenchFile{
		Schema: "lcmbench/2", UnixNS: 1, P: 8, Scale: 16, Net: "uniform", Scheduler: "det",
		Records: []harness.BenchRecord{
			{Workload: "Stencil", Sched: "static", System: "copying", WallNS: 5, SimCycles: 100, SimMisses: 7,
				Verified: true, NetMsgs: 3, NetBytes: 96, Restarts: 1, Checkpoints: 4, RunAhead: "on", SchedGrants: 9},
			{Workload: "KV", Sched: "read", System: "lcm-mcc", WallNS: 6, SimCycles: 200, KVOps: 50, KVAnswer: 42},
		},
	}
}

func TestBenchdiff(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, edit func(bf *harness.BenchFile)) string {
		bf := seedFile()
		if edit != nil {
			edit(&bf)
		}
		b, err := json.Marshal(bf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", nil)

	for _, c := range []struct {
		name string
		edit func(bf *harness.BenchFile)
		code int
		want string // on stderr (stdout when code is 0)
	}{
		{"identical", nil, 0, "benchdiff: identical across 2 records\n"},

		// One case per class of observable: each is named by its JSON tag.
		{"counter", func(bf *harness.BenchFile) { bf.Records[0].SimCycles++ }, 1, "Stencil/static/copying: simcycles drifted: 100 vs 101\n"},
		{"verified", func(bf *harness.BenchFile) { bf.Records[0].Verified = false }, 1, "Stencil/static/copying: verified drifted: true vs false\n"},
		{"kv", func(bf *harness.BenchFile) { bf.Records[1].KVAnswer = 43 }, 1, "KV/read/lcm-mcc: kv_answer drifted: 42 vs 43\n"},
		{"recovery", func(bf *harness.BenchFile) { bf.Records[0].Restarts = 2 }, 1, "Stencil/static/copying: restarts drifted: 1 vs 2\n"},
		{"two fields", func(bf *harness.BenchFile) { bf.Records[0].NetMsgs, bf.Records[1].KVOps = 4, 51 }, 1, "2 deterministic field(s) drifted across 2 records\n"},

		// Host time is not an observable.
		{"wall_ns", func(bf *harness.BenchFile) { bf.Records[0].WallNS = 999 }, 0, "identical"},
		{"run_ahead", func(bf *harness.BenchFile) { bf.Records[0].RunAhead = "off: trace" }, 0, "identical"},
		{"sched", func(bf *harness.BenchFile) {
			bf.Records[0].SchedGrants, bf.Records[0].SchedHandoffs, bf.Records[0].SchedApplies = 1, 2, 3
		}, 0, "identical"},
		{"unix_ns", func(bf *harness.BenchFile) { bf.UnixNS = 999 }, 0, "identical"},

		// Files from different configurations are refused before any record.
		{"p", func(bf *harness.BenchFile) { bf.P, bf.Records[0].SimCycles = 4, 0 }, 1, "benchdiff: configuration mismatch: p/scale/net 8/16/\"uniform\" vs 4/16/\"uniform\"\n"},
		{"scale", func(bf *harness.BenchFile) { bf.Scale = 8 }, 1, "configuration mismatch: p/scale/net"},
		{"net", func(bf *harness.BenchFile) { bf.Net = "fattree" }, 1, "configuration mismatch: p/scale/net"},
		{"seed", func(bf *harness.BenchFile) { bf.SchedSeed = 7 }, 1, "configuration mismatch: scheduler \"det\" seed 0 vs \"det\" seed 7"},
		{"count", func(bf *harness.BenchFile) { bf.Records = bf.Records[:1] }, 1, "record count mismatch: 2 vs 1\n"},
		{"order", func(bf *harness.BenchFile) { bf.Records[0], bf.Records[1] = bf.Records[1], bf.Records[0] }, 1, "record 0 identity mismatch"},

		{"empty", func(bf *harness.BenchFile) { bf.Records = nil }, 2, "no records\n"},
	} {
		var out, errOut strings.Builder
		code := run([]string{"-identical", base, write("other.json", c.edit)}, &out, &errOut)
		got := errOut.String()
		if c.code == 0 {
			got = out.String()
		}
		if code != c.code || !strings.Contains(got, c.want) {
			t.Errorf("%s: run() = %d\nstdout: %q\nstderr: %q\nwant exit code %d and %q", c.name, code, out.String(), errOut.String(), c.code, c.want)
		}
		if c.name == "p" && strings.Contains(got, "drifted") {
			t.Errorf("%s: records were compared across a configuration mismatch: %q", c.name, got)
		}
	}

	for _, args := range [][]string{
		{"-identical", base, filepath.Join(dir, "missing.json")},
		{base, base},           // no -identical
		{"-identical", base},   // one file
		{"-ratio", base, base}, // an unknown flag
	} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 || errOut.Len() == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d, stdout %q, stderr %q; want exit code 2 with a diagnostic", args, code, out.String(), errOut.String())
		}
	}
}
