// Command lcmbench regenerates the paper's experiments: Table 1 (cache
// misses and clean copies), Figure 2 (Stencil execution time), Figure 3
// (Adaptive / Threshold / Unstructured execution time), and the Section 7
// ablations (reductions, false sharing, stale data).
//
// By default it runs everything at the paper's parameters (32 processors,
// 32-byte blocks, 1024x1024 Stencil, ...).  Use -scale to shrink the
// problems proportionally for a quick run, e.g. -scale 8.
//
// Usage:
//
//	lcmbench [-scale N] [-p N] [-blocksize N] [-verify] [-table1]
//	         [-fig2] [-fig3] [-ablate] [-net=uniform|fattree] [-linkbw N]
//	         [-nilat N] [-netsweep] [-schedseed N]
//	         [-kvskew S] [-kvreshard N]
//
// With no selection flags, all experiments run.  -netsweep, -chaos and
// -recovery each run only their own campaign: combined with one another,
// with another selection or with -csv/-json/-detjson they are refused (exit
// status 2) rather than one of the two being dropped.  -cells selects
// individual grid cells by name, including the serving-traffic cells
// KV-read and KV-write (the sharded key-value workload); -kvskew and
// -kvreshard tune the KV cells' Zipf skew and reshard cadence, and both
// are part of the deterministic run tuple.  -net selects the
// interconnect model (the default uniform model reproduces the historical
// flat charges bit-exactly; fattree adds topology and queueing), and
// -netsweep runs the contention sensitivity sweep.  Runs are scheduled by
// the deterministic virtual-time scheduler (internal/sched): every
// observable, simulated cycles included, is a pure function of the
// configuration and -schedseed.  -chaos runs the fault-injection campaign
// instead: every workload under every memory system with seeded faults,
// asserting answers bit-identical to the fault-free runs and recovery
// counters matching the injected plans; the exit status reports the
// verdict.  -recovery runs the crash-recovery
// matrix: node kills restarting from barrier checkpoints, sustained
// message loss survived by retransmission, and kill storms past the
// restart budget forcing degraded-mode re-homing, each cell asserting
// answer identity against the fault-free oracle, bit-identical replay,
// and exact recovery accounting.
//
// Benchmark cells that fail to run — an invalid configuration (for
// example -blocksize above the protocol's 256-byte element-tracking
// limit) or a node error — are reported on stderr and make the exit
// status 1, with or without -verify.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"lcm/internal/harness"
	"lcm/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// writeFile opens path, calls fn on it, and reports any error.
func writeFile(path string, fn func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run is the whole program with main's process concerns (args, exit
// status, output streams) made explicit so tests can drive it in
// process.  It returns the exit code: 0 on success, 1 on failed runs or
// verdicts, 2 on unusable flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lcmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Int("scale", 1, "divide problem sizes by this factor (1 = paper scale)")
	p := fs.Int("p", 32, "number of simulated processors")
	blockSize := fs.Int("blocksize", 0, "coherence block size in bytes (0 = paper default of 32; power of two, at most 256)")
	verify := fs.Bool("verify", false, "check results against sequential references (slower)")
	table1 := fs.Bool("table1", false, "run only Table 1 benchmarks")
	fig2 := fs.Bool("fig2", false, "run only Figure 2 (Stencil)")
	fig3 := fs.Bool("fig3", false, "run only Figure 3 (Adaptive/Threshold/Unstructured)")
	ablate := fs.Bool("ablate", false, "run only the Section 7 ablations")
	chaos := fs.Bool("chaos", false, "run only the fault-injection chaos campaign")
	recovery := fs.Bool("recovery", false, "run only the crash-recovery matrix (checkpointed restarts, retransmission under message loss, degraded-mode re-homing)")
	sweeps := fs.Bool("sweeps", false, "also run the extension sweeps (block size, processors, cache capacity, interconnect); heavy at scale 1")
	netModel := fs.String("net", "uniform", "interconnect model: uniform (flat charges, bit-identical to the historical model) or fattree (CM-5-style 4-ary fat tree with link/NI queueing)")
	linkBW := fs.Int64("linkbw", 0, "fattree link serialization in cycles per byte (0 = default; higher = less bandwidth)")
	niLat := fs.Int64("nilat", 0, "fattree network-interface occupancy in cycles per message end (0 = default)")
	netSweep := fs.Bool("netsweep", false, "run only the interconnect sensitivity sweep (P x link bandwidth x system over the fat tree)")
	schedSeed := fs.Uint64("schedseed", 0, "deterministic schedule seed (0 = canonical cycle/node order; other seeds permute same-cycle ties)")
	cells := fs.String("cells", "", "comma-separated grid cells to run instead of the full grid (e.g. Stencil-static,KV-read); implies -table1")
	kvSkew := fs.Float64("kvskew", 0, "KV cells' Zipf skew exponent (0 = workload default of 0.99)")
	kvReshard := fs.Int("kvreshard", 0, "KV cells' reshard cadence in phases (0 = workload default; negative = resharding off)")
	csvPath := fs.String("csv", "", "also write benchmark results as CSV to this file")
	jsonPath := fs.String("json", "", "also write a BENCH_*.json benchmark trajectory record (wall time + simulation observables per cell) to this file")
	detJSONPath := fs.String("detjson", "", "also write the deterministic BENCH_*.json bytes (timestamp zero, wall times masked) to this file; byte-identical across runs of the same tuple and to lcmd server-mode results")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	fs.Usage = func() {} // a bad flag gets the one line Parse prints; -h gets the list
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "Usage of lcmbench:")
			fs.PrintDefaults()
		}
		return 2
	}

	cfg, err := harness.Tuple{P: *p, Scale: *scale, BlockSize: *blockSize, KVSkew: *kvSkew,
		Net: *netModel, LinkBW: *linkBW, NILat: *niLat}.Config()
	if err != nil {
		fmt.Fprintln(stderr, "lcmbench:", err)
		return 2
	}
	cfg.Verify, cfg.SchedSeed = *verify, *schedSeed
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "lcmbench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "lcmbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			err := writeFile(*memProfile, func(w io.Writer) error {
				runtime.GC() // settle allocations so the profile shows live heap
				return pprof.WriteHeapProfile(w)
			})
			if err != nil {
				fmt.Fprintln(stderr, "lcmbench:", err)
			}
		}()
	}
	s := harness.New(stdout)
	s.Cfg = cfg
	s.Scale = *scale
	s.KVSkew = *kvSkew
	s.KVReshard = *kvReshard

	// -netsweep, -chaos and -recovery each run their own campaign and
	// nothing else; a second selection would be dropped, so it is refused.
	selected := []struct {
		name string
		set  bool
	}{
		{"netsweep", *netSweep}, {"chaos", *chaos}, {"recovery", *recovery},
		{"cells", *cells != ""}, {"table1", *table1}, {"fig2", *fig2}, {"fig3", *fig3},
		{"ablate", *ablate}, {"sweeps", *sweeps},
		{"csv", *csvPath != ""}, {"json", *jsonPath != ""}, {"detjson", *detJSONPath != ""},
	}
	for _, only := range selected[:3] {
		for _, other := range selected {
			if only.set && other.set && other.name != only.name {
				fmt.Fprintf(stderr, "lcmbench: -%s runs only its own campaign and cannot be combined with -%s\n", only.name, other.name)
				return 2
			}
		}
	}

	// failed reports every run that did not complete, one line each, and
	// whether there was any.
	failed := func(results []workloads.Result) bool {
		bad := false
		for _, r := range results {
			if r.Err != nil {
				fmt.Fprintf(stderr, "FAILED %s/%s: %v\n", r.Label(), r.System, r.Err)
				bad = true
			}
		}
		return bad
	}

	start := time.Now()
	done := func() int {
		fmt.Fprintf(stdout, "total wall time: %s\n", time.Since(start).Round(time.Millisecond))
		return 0
	}
	if *netSweep {
		s.DefaultNetSweep()
		return done()
	}
	verdict := func(name, passed string, err error) int {
		if err != nil {
			fmt.Fprintf(stderr, "lcmbench: %s FAILED:\n%v\n", name, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s passed: %s\n", name, passed)
		return done()
	}
	if *chaos {
		return verdict("chaos campaign", "all recoveries bit-identical, counters match injected plans",
			s.RunChaos(harness.DefaultChaosPlans()))
	}
	if *recovery {
		return verdict("recovery matrix", "all runs survived, answers and replays bit-identical, recovery counters exact",
			s.RunRecovery(harness.DefaultRecoveryPlans(), []uint64{1, 2}))
	}
	all := *cells == "" && !*table1 && !*fig2 && !*fig3 && !*ablate

	if all || *table1 || *fig2 || *fig3 || *cells != "" {
		// The full grid unless -cells names some; only the full grid has
		// the rows the figures are drawn from.
		grid := *cells == ""
		var names []string
		if grid {
			fmt.Fprintf(stdout, "running benchmarks (P=%d, scale 1/%d)...\n", *p, *scale)
		} else {
			names = strings.Split(*cells, ",")
		}
		cellSpecs, err := harness.ParseCells(names)
		if err != nil {
			fmt.Fprintln(stderr, "lcmbench:", err)
			return 2
		}
		rows, err := s.RunCells(cellSpecs)
		if err != nil {
			fmt.Fprintln(stderr, "lcmbench:", err)
			return 2
		}
		if all || *table1 || !grid {
			s.Table1(rows)
		}
		if grid && (all || *fig2) {
			s.Fig2(rows)
		}
		if grid && (all || *fig3) {
			s.Fig3(rows)
		}
		for _, sink := range []struct {
			path  string
			write func(w io.Writer) error
		}{
			{*csvPath, func(w io.Writer) error { return harness.WriteCSV(w, rows) }},
			{*jsonPath, func(w io.Writer) error { return harness.WriteJSON(w, s.Cfg, s.Scale, rows) }},
			{*detJSONPath, func(w io.Writer) error {
				b, err := harness.MarshalDeterministic(s.Cfg, s.Scale, rows)
				if err == nil {
					_, err = w.Write(b)
				}
				return err
			}},
		} {
			if sink.path == "" {
				continue
			}
			if err := writeFile(sink.path, sink.write); err != nil {
				fmt.Fprintln(stderr, "lcmbench:", err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s\n", sink.path)
		}
		if failed(harness.Results(rows)) {
			return 1
		}
		if *verify {
			fmt.Fprintln(stdout, "all benchmark results verified against sequential references")
		}
	}
	if (all || *ablate) && failed(s.RunAblations()) {
		return 1
	}
	if *sweeps && failed(s.RunSweeps()) {
		return 1
	}
	return done()
}
