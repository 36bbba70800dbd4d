package lcmperf

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkJSON is the shape of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []jsonMetric `json:"end_to_end"`
	PerLayer   []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func declared(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d benchmarkJSON
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// The driver refuses a BENCHMARK.json outside these limits before a
// single run.
func TestDeclarationsWithinTheContract(t *testing.T) {
	if n := len(Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := make(map[string]bool)
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's alphabet or length", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, d := range append(append([]MetricDef(nil), EndToEnd...), PerLayer...) {
		check(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is outside the contract's alphabet", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside 0..0.25", d.Name, d.Bound)
		}
		setup = setup || d == MetricDef{"setup_s", "s", "lower", d.Bound}
	}
	if !setup {
		t.Error("no end-to-end metric setup_s in s, lower is better")
	}
}

// BENCHMARK.json is written by hand from the tables of this package; the
// two must not drift apart.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	d := declared(t)
	if !reflect.DeepEqual(d.Paths, []string{"bench"}) || d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", d.Paths, d.RunSeconds)
	}
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name+": "+w.Why)
	}
	var want []string
	for _, w := range Workloads {
		want = append(want, w.Name+": "+w.Why)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads differ:\n json %q\n code %q", names, want)
	}
	same := func(kind string, got []jsonMetric, want []MetricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, %d in the tables", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			if w := want[i]; g != (jsonMetric{w.Name, w.Unit, w.Better, w.Bound}) {
				t.Errorf("%s metric %d: json %+v, code %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", d.EndToEnd, EndToEnd)
	same("per_layer", d.PerLayer, PerLayer)
}

func buildLcmd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "lcmd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/lcmd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/lcmd: %v\n%s", err, out)
	}
	return bin
}

// small shrinks a workload to a 4-node machine and 1/32 problem sizes.
func small(w Workload, t *testing.T) Options {
	w.Scale, w.Iters = 32, 0
	if w.KV {
		w.Ops = 64
	}
	return Options{
		Workload: w, Seed: 7, Seconds: 0.5, MinPasses: 2, Setups: 2,
		EndToEnd: true, Layers: true, P: 4, Dir: ".", OutDir: t.TempDir(),
	}
}

// Every workload runs end to end at a small size: no op fails, the names
// printed are exactly the names declared, and the layer metrics that the
// README's interaction map is checked with read as it says.
func TestEveryWorkloadRuns(t *testing.T) {
	var wantNames []string
	d := declared(t)
	for _, m := range append(d.EndToEnd, d.PerLayer...) {
		wantNames = append(wantNames, m.Name)
	}
	sort.Strings(wantNames)

	lcmd := buildLcmd(t)
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			o := small(w, t)
			o.Lcmd = lcmd
			rec, err := Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", rec.Correct, rec.Attempted, rec.Failed)
			}
			var names []string
			for name := range rec.Metrics {
				names = append(names, name)
			}
			sort.Strings(names)
			if !reflect.DeepEqual(names, wantNames) {
				t.Errorf("printed names differ from BENCHMARK.json:\n got %q\nwant %q", names, wantNames)
			}
			for _, e := range EndToEnd {
				if v := rec.Metrics[e.Name].Value; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, must never be 0", e.Name, v)
				}
			}
			val := func(name string) float64 { return rec.Metrics[name].Value }

			if !w.KV {
				sum := val("runtime.cpu_share") + val("runtime.gc_share")
				for _, l := range Layers {
					sum += val(l + ".cpu_share")
				}
				if math.Abs(sum-1) > 0.01 {
					t.Errorf("cpu shares sum to %v, want 1", sum)
				}
			}
			if queued := val("net.queue_cycles") > 0; queued != (w.Net == "fattree") {
				t.Errorf("net.queue_cycles = %v on net %q", val("net.queue_cycles"), w.Net)
			}
			if w.KV {
				if c, w := val("serve.cache_hit_ratio_cold"), val("serve.cache_hit_ratio_warm"); c != 0 || w != 1 {
					t.Errorf("serve.cache_hit_ratio: cold phases %v, warm phases %v, want 0 and 1", c, w)
				}
			}
			if _, err := os.Stat(filepath.Join(o.OutDir, "trace-"+w.Name+".json")); err != nil {
				t.Errorf("no Chrome trace written: %v", err)
			}
		})
	}
}

// An observable that differs from the verified warm-up's makes the op a
// failed one, whatever its own error says.
func TestPerturbedObservableIsAFailedOp(t *testing.T) {
	w, err := Lookup("lcm-miss")
	if err != nil {
		t.Fatal(err)
	}
	tgt := &simTarget{o: small(w, t)}
	warm, err := tgt.setUp()
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[string]any)
	for _, x := range warm {
		ref[x.id] = x.exact
	}
	ops := tgt.pass(0, nil, -1).ops
	if n := countFailures(ref, ops); n != 0 {
		t.Fatalf("%d of %d identical ops counted as failed", n, len(ops))
	}
	obs := ops[1].exact.(simObservables)
	obs.cycles++
	ops[1].exact = obs
	if n := countFailures(ref, ops); n != 1 {
		t.Errorf("one perturbed cycle count: %d failed ops, want 1", n)
	}
}

// The golden of a workload is compared only at its own inputs, and a
// changed count shows as drift, not as a failure.
func TestGoldenDrift(t *testing.T) {
	w, err := Lookup("hit-path")
	if err != nil {
		t.Fatal(err)
	}
	o := small(w, t)
	o.Dir = t.TempDir()
	tgt := &simTarget{o: o}
	if _, err := tgt.setUp(); err != nil {
		t.Fatal(err)
	}
	p := tgt.pass(0, nil, -1)
	if got := goldenDrift(o, p); got != -1 {
		t.Errorf("drift without a golden = %v, want -1", got)
	}
	if err := writeGolden(o, p); err != nil {
		t.Fatal(err)
	}
	if got := goldenDrift(o, p); got != 0 {
		t.Errorf("drift against its own golden = %v, want 0", got)
	}
	p.ops[0].stache.Misses++
	if got := goldenDrift(o, p); got != 1 {
		t.Errorf("drift with one changed op = %v, want 1", got)
	}
	o.Seed++
	if got := goldenDrift(o, p); got != -1 {
		t.Errorf("drift at another seed = %v, want -1", got)
	}
}
