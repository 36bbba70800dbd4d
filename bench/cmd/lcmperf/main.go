// Command lcmperf runs the repository's benchmark (see ../../README.md).
//
//	lcmperf                         every workload, end-to-end and per-layer metrics
//	lcmperf -workload lcm-miss      one workload, in this process
//	lcmperf -selfcheck              two end-to-end sets, compared against the bounds
//
// Run on one workload it prints a table and then, as the last line of
// standard output, one JSON object {correct, attempted, failed, metrics}.
// With -workload all it runs each workload in a fresh process of itself.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	lcmperf "lcm/bench"
)

type config struct {
	workload     string
	seed         uint64
	seconds      float64
	passes       int
	trace        string
	dir          string
	jsonOut      string
	traceOut     string
	updateGolden bool
}

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "all", "workload to run, or all")
	flag.Uint64Var(&c.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&c.seconds, "seconds", 30, "how long one run of a workload measures, set-ups included")
	flag.IntVar(&c.passes, "passes", 5, "least number of timed passes, however long they take")
	flag.StringVar(&c.trace, "trace", "both", "0: end-to-end metrics from untraced passes; 1: per-layer metrics from the traced run; both")
	flag.StringVar(&c.dir, "dir", "", "the benchmark's directory (default: bench, or . when run inside it)")
	flag.StringVar(&c.jsonOut, "json", "", "write the metrics record here (default <dir>/out/lcmperf.json)")
	flag.StringVar(&c.traceOut, "trace-out", "", "directory for the Chrome traces (default <dir>/out)")
	flag.BoolVar(&c.updateGolden, "update-golden", false, "rewrite <dir>/golden from this run (default seed only)")
	selfcheck := flag.Bool("selfcheck", false, "run two end-to-end sets and compare them against the metrics' bounds")
	flag.Parse()

	if c.dir == "" {
		c.dir = "."
		if _, err := os.Stat("bench/go.mod"); err == nil {
			c.dir = "bench"
		}
	}
	if c.trace != "0" && c.trace != "1" && c.trace != "both" {
		fatal(2, fmt.Errorf("-trace must be 0, 1 or both, got %q", c.trace))
	}
	if c.traceOut == "" {
		c.traceOut = filepath.Join(c.dir, "out")
	}
	if c.jsonOut == "" {
		c.jsonOut = filepath.Join(c.dir, "out", "lcmperf.json")
	}

	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(c)
	case c.workload == "all":
		err = runAll(c)
	default:
		err = runOne(c)
	}
	if err != nil {
		fatal(1, err)
	}
}

func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "lcmperf:", err)
	os.Exit(code)
}

// buildTool builds one helper program into <dir>/out/bin and returns its
// path.  from is the directory to build in, pkg the package there.
func buildTool(c config, name, from, pkg string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(c.dir, "out", "bin", name))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, pkg)
	cmd.Dir = from
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build %s: %w\n%s", pkg, err, out)
	}
	return bin, nil
}

// runOne measures one workload in this process and prints its record.
func runOne(c config) error {
	w, err := lcmperf.Lookup(c.workload)
	if err != nil {
		return err
	}
	o := lcmperf.Options{
		Workload: w, Seed: c.seed, Seconds: c.seconds, MinPasses: c.passes, Setups: 5,
		EndToEnd: c.trace != "1", Layers: c.trace != "0", P: 32,
		Dir: c.dir, OutDir: c.traceOut, UpdateGolden: c.updateGolden,
	}
	if !o.EndToEnd {
		o.Setups = 1 // setup_s is not reported
	}

	// go build is left out of setup_s: what it costs depends on the state
	// of the build cache, not on the code.  It is reported as build_s.
	t0 := time.Now()
	if w.KV {
		if o.Lcmd, err = buildTool(c, "lcmd", filepath.Join(c.dir, ".."), "./cmd/lcmd"); err != nil {
			return err
		}
	}
	if o.Layers {
		if o.Probes, err = buildTool(c, "lcmprobes", c.dir, "./probes"); err != nil {
			fmt.Fprintln(os.Stderr, "lcmperf: probes do not build; their metrics read 0:", err)
		}
	}
	o.BuildSeconds = time.Since(t0).Seconds()
	if s, err := strconv.ParseFloat(os.Getenv("LCMPERF_BUILD_S"), 64); err == nil {
		o.BuildSeconds += s // run.sh building this program
	}
	o.Start = time.Now()

	rec, runErr := lcmperf.Run(o)
	if rec.Metrics == nil {
		return runErr
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "lcmperf: first failed op:", runErr)
	}
	printRecord(w.Name, rec)
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printRecord(workload string, rec lcmperf.Record) {
	fmt.Printf("%s: %d ops attempted, %d failed\n", workload, rec.Attempted, rec.Failed)
	for _, defs := range [][]lcmperf.MetricDef{lcmperf.EndToEnd, lcmperf.PerLayer} {
		for _, d := range defs {
			if v, ok := rec.Metrics[d.Name]; ok {
				fmt.Printf("  %-48s %16.6g %s\n", d.Name, v.Value, v.Unit)
			}
		}
	}
}

// child runs one workload in a fresh process of this program and returns
// its record; the child's table goes to standard output as it is.
func child(c config, workload, trace string) (lcmperf.Record, error) {
	var rec lcmperf.Record
	self, err := os.Executable()
	if err != nil {
		return rec, err
	}
	cmd := exec.Command(self,
		"-workload", workload, "-trace", trace, "-dir", c.dir, "-trace-out", c.traceOut,
		"-seed", strconv.FormatUint(c.seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64),
		"-passes", strconv.Itoa(c.passes),
		"-update-golden="+strconv.FormatBool(c.updateGolden))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return rec, fmt.Errorf("workload %s: %w", workload, err)
	}
	table, last := cutLastLine(out)
	os.Stdout.Write(table) //nolint:errcheck // a closed stdout has no one to tell
	if err := json.Unmarshal(last, &rec); err != nil {
		return rec, fmt.Errorf("workload %s: last line is no record: %w", workload, err)
	}
	return rec, nil
}

func cutLastLine(out []byte) (before, last []byte) {
	out = bytes.TrimRight(out, "\n")
	i := bytes.LastIndexByte(out, '\n')
	return out[:i+1], out[i+1:]
}

// runAll measures every workload, each in a fresh process, and writes the
// records with the run's metadata.
func runAll(c config) error {
	records := make(map[string]lcmperf.Record)
	failed := 0
	for _, w := range lcmperf.Workloads {
		rec, err := child(c, w.Name, c.trace)
		if err != nil {
			return err
		}
		records[w.Name] = rec
		failed += rec.Failed
	}
	doc := map[string]any{"meta": metadata(c), "workloads": records}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(c.jsonOut), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(c.jsonOut, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("records: %s   traces: %s\n", c.jsonOut, c.traceOut)
	if failed > 0 {
		return fmt.Errorf("%d ops failed", failed)
	}
	return nil
}

func metadata(c config) map[string]any {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = c.dir
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit,
		"seed": c.seed, "seconds": c.seconds, "passes": c.passes,
		"unix": time.Now().Unix(),
	}
}

// runSelfcheck is the acceptance run: two end-to-end sets of the same
// code, back to back, must agree within each metric's own bound — exactly,
// for the simulated cycle count — and no op may fail.
func runSelfcheck(c config) error {
	var sets [2]map[string]lcmperf.Record
	for i := range sets {
		sets[i] = make(map[string]lcmperf.Record)
		for _, w := range lcmperf.Workloads {
			rec, err := child(c, w.Name, "0")
			if err != nil {
				return err
			}
			sets[i][w.Name] = rec
		}
	}
	bad := 0
	fmt.Printf("\n%-18s %-20s %14s %14s %8s %6s\n", "workload", "metric", "set 1", "set 2", "worse", "bound")
	for _, w := range lcmperf.Workloads {
		a, b := sets[0][w.Name], sets[1][w.Name]
		verdict := ""
		if a.Failed+b.Failed > 0 {
			verdict = fmt.Sprintf("  %d ops failed", a.Failed+b.Failed)
			bad++
		}
		fmt.Printf("%-18s %-20s %14d %14d%s\n", w.Name, "ops", a.Attempted, b.Attempted, verdict)
		for _, d := range lcmperf.EndToEnd {
			x, y := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			// How far the worse of the two sets is from the better one.
			worse := (max(x, y) - min(x, y)) / min(x, y)
			bound := d.Bound
			if d.Name == "sim_cycles" {
				bound = 0 // same seed, same code: the simulated machine is exact
			}
			verdict = ""
			if worse > bound {
				verdict = "  DISAGREE"
				bad++
			}
			fmt.Printf("%-18s %-20s %14.6g %14.6g %7.2f%% %5.0f%%%s\n", w.Name, d.Name, x, y, 100*worse, 100*bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d disagreements", bad)
	}
	fmt.Println("selfcheck: both sets agree within every bound")
	return nil
}
