// Command benchdiff compares two BENCH_*.json benchmark trajectory files
// produced by lcmbench -json: every simulation observable of each record —
// whatever harness.BenchRecord carries, the fault, recovery and
// serving-workload (KV) counters included — and fails on any difference,
// naming the drifted field by its JSON name.  Only host time is excluded
// (wall clock, the run-ahead decision and scheduler tallies, the file
// timestamp), masked by the same harness.BenchFile.MaskHostTime that
// `lcmbench -detjson` masks with: every observable, simulated cycles and
// Copying fault counts included, is a pure function of (workload, P,
// schedule seed) at every P (internal/sched), so two runs of the same
// configuration must be bit-identical with no carve-outs.  Comparing files
// recorded under different schedule seeds is a configuration mismatch,
// reported before any record is compared.  Host time is lcmperf's business
// (bench/), not this tool's.
//
//	benchdiff -identical a.json b.json
//
// Exit status: 0 on pass, 1 on mismatch, 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"

	"lcm/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// load reads one trajectory file with its host-time fields masked.
func load(path string) (harness.BenchFile, error) {
	var bf harness.BenchFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("%s: %v", path, err)
	}
	if len(bf.Records) == 0 {
		return bf, fmt.Errorf("%s: no records", path)
	}
	bf.MaskHostTime()
	return bf, nil
}

func key(r harness.BenchRecord) string {
	return r.Workload + "/" + r.Sched + "/" + r.System
}

// run is the whole program with main's process concerns made explicit so
// tests can drive it in process.  It returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fail := func(code int, format string, args ...any) int {
		fmt.Fprintf(stderr, "benchdiff: "+format+"\n", args...)
		return code
	}
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	identical := fs.Bool("identical", false, "compare every simulation observable exactly (the only mode; required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !*identical || fs.NArg() != 2 {
		return fail(2, "usage: benchdiff -identical a.json b.json")
	}
	a, err := load(fs.Arg(0))
	if err != nil {
		return fail(2, "%v", err)
	}
	b, err := load(fs.Arg(1))
	if err != nil {
		return fail(2, "%v", err)
	}

	if a.P != b.P || a.Scale != b.Scale || a.Net != b.Net {
		return fail(1, "configuration mismatch: p/scale/net %d/%d/%q vs %d/%d/%q",
			a.P, a.Scale, a.Net, b.P, b.Scale, b.Net)
	}
	if a.Scheduler != b.Scheduler || a.SchedSeed != b.SchedSeed {
		return fail(1, "configuration mismatch: scheduler %q seed %d vs %q seed %d (records from different schedules are not comparable)",
			a.Scheduler, a.SchedSeed, b.Scheduler, b.SchedSeed)
	}
	if len(a.Records) != len(b.Records) {
		return fail(1, "record count mismatch: %d vs %d", len(a.Records), len(b.Records))
	}

	bad := 0
	for i := range a.Records {
		ra, rb := a.Records[i], b.Records[i]
		if key(ra) != key(rb) {
			return fail(1, "record %d identity mismatch: %s vs %s", i, key(ra), key(rb))
		}
		if ra == rb {
			continue
		}
		// Name what drifted by its JSON name, whatever fields a record has.
		va, vb := reflect.ValueOf(ra), reflect.ValueOf(rb)
		for f := 0; f < va.NumField(); f++ {
			if fa, fb := va.Field(f).Interface(), vb.Field(f).Interface(); fa != fb {
				name, _, _ := strings.Cut(va.Type().Field(f).Tag.Get("json"), ",")
				fmt.Fprintf(stderr, "benchdiff: %s: %s drifted: %v vs %v\n", key(ra), name, fa, fb)
				bad++
			}
		}
	}
	if bad > 0 {
		return fail(1, "%d deterministic field(s) drifted across %d records", bad, len(a.Records))
	}
	fmt.Fprintf(stdout, "benchdiff: identical across %d records\n", len(a.Records))
	return 0
}
