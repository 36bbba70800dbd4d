package workloads

import (
	"testing"

	"lcm/internal/cstar"
)

// Small-scale configurations keep the tests quick while still spanning
// multiple blocks per row, multiple phases, and subdivision activity.
var testCfg = Config{P: 8, Verify: true}

var allSystems = []cstar.System{cstar.Copying, cstar.LCMscc, cstar.LCMmcc}

func TestStencilAllSystemsAndSchedules(t *testing.T) {
	for _, sys := range allSystems {
		for _, sched := range []string{"static", "dynamic"} {
			spec := StencilSpec{N: 40, Iters: 6, Sched: sched}
			r := RunStencil(sys, spec, testCfg)
			if r.Err != nil {
				t.Fatalf("%v/%s: %v", sys, sched, r.Err)
			}
			if r.Cycles <= 0 || r.C.Misses == 0 {
				t.Fatalf("%v/%s: empty measurements %+v", sys, sched, r)
			}
			if sys.IsLCM() && r.S.WriteConflicts != 0 {
				t.Fatalf("%v/%s: stencil has disjoint writes but %d conflicts", sys, sched, r.S.WriteConflicts)
			}
			if !sys.IsLCM() && r.CleanCopies() != 0 {
				t.Fatalf("copying baseline reports clean copies")
			}
		}
	}
}

func TestStencilOddIterations(t *testing.T) {
	// Exercises the final-buffer parity logic under Copying.
	r := RunStencil(cstar.Copying, StencilSpec{N: 24, Iters: 5, Sched: "static"}, testCfg)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
}

func TestStencilSCCRefetchesMoreThanMCC(t *testing.T) {
	spec := StencilSpec{N: 64, Iters: 4, Sched: "static"}
	scc := RunStencil(cstar.LCMscc, spec, testCfg)
	mcc := RunStencil(cstar.LCMmcc, spec, testCfg)
	if scc.Err != nil || mcc.Err != nil {
		t.Fatal(scc.Err, mcc.Err)
	}
	if scc.C.Misses <= 2*mcc.C.Misses {
		t.Fatalf("scc misses (%d) should far exceed mcc misses (%d)", scc.C.Misses, mcc.C.Misses)
	}
	if scc.Cycles <= mcc.Cycles {
		t.Fatalf("scc (%d cycles) should be slower than mcc (%d)", scc.Cycles, mcc.Cycles)
	}
	// mcc keeps local clean copies, scc none.
	if scc.S.CleanCopiesLocal != 0 || mcc.S.CleanCopiesLocal == 0 {
		t.Fatalf("local clean copies: scc %d, mcc %d", scc.S.CleanCopiesLocal, mcc.S.CleanCopiesLocal)
	}
}

func TestStencilStaticFavorsStacheDynamicFavorsLCM(t *testing.T) {
	// The headline Figure 2 shape at small scale: the gap between
	// Copying and LCM-mcc must shrink dramatically (or invert) when
	// partitioning becomes dynamic.
	spec := func(s string) StencilSpec { return StencilSpec{N: 64, Iters: 6, Sched: s} }
	copyStat := RunStencil(cstar.Copying, spec("static"), testCfg)
	mccStat := RunStencil(cstar.LCMmcc, spec("static"), testCfg)
	copyDyn := RunStencil(cstar.Copying, spec("dynamic"), testCfg)
	mccDyn := RunStencil(cstar.LCMmcc, spec("dynamic"), testCfg)
	if copyStat.Cycles >= mccStat.Cycles {
		t.Fatalf("static: Stache (%d) should beat LCM-mcc (%d)", copyStat.Cycles, mccStat.Cycles)
	}
	statRatio := float64(mccStat.Cycles) / float64(copyStat.Cycles)
	dynRatio := float64(mccDyn.Cycles) / float64(copyDyn.Cycles)
	if dynRatio >= statRatio {
		t.Fatalf("dynamic partitioning should favor LCM: static ratio %.2f, dynamic ratio %.2f", statRatio, dynRatio)
	}
	// Dynamic partitioning must cost Stache many more misses.
	if copyDyn.C.Misses <= 2*copyStat.C.Misses {
		t.Fatalf("dynamic Stache misses (%d) should far exceed static (%d)", copyDyn.C.Misses, copyStat.C.Misses)
	}
}

func TestThresholdAllSystems(t *testing.T) {
	spec := ThresholdSpec{N: 48, Iters: 8, Threshold: 0.05, Sources: 3}
	var misses [3]int64
	for i, sys := range allSystems {
		r := RunThreshold(sys, spec, testCfg)
		if r.Err != nil {
			t.Fatalf("%v: %v", sys, r.Err)
		}
		ratio := r.Extra["modified_ratio"]
		if ratio <= 0 || ratio > 0.5 {
			t.Fatalf("%v: modified ratio %.3f implausible", sys, ratio)
		}
		misses[i] = r.C.Misses
	}
	// LCM copies only modified blocks; the baseline touches the whole
	// mesh every iteration, so it must miss more than mcc.
	if misses[0] <= misses[2] {
		t.Fatalf("copying misses (%d) should exceed lcm-mcc misses (%d)", misses[0], misses[2])
	}
}

func TestAdaptiveAllSystemsAndSchedules(t *testing.T) {
	for _, sys := range allSystems {
		for _, sched := range []string{"static", "dynamic"} {
			spec := AdaptiveSpec{N: 8, MaxDepth: 3, Iters: 10, Sched: sched,
				Electrodes: 2, SubdivThreshold: 4}
			r := RunAdaptive(sys, spec, testCfg)
			if r.Err != nil {
				t.Fatalf("%v/%s: %v", sys, sched, r.Err)
			}
			if r.Extra["cells"] <= float64(8*8) {
				t.Fatalf("%v/%s: no subdivision happened (cells=%v)", sys, sched, r.Extra["cells"])
			}
		}
	}
}

func TestAdaptiveSubdivisionDeterministicAcrossSystems(t *testing.T) {
	spec := AdaptiveSpec{N: 8, MaxDepth: 3, Iters: 12, Sched: "static",
		Electrodes: 2, SubdivThreshold: 4}
	var cells []float64
	for _, sys := range allSystems {
		r := RunAdaptive(sys, spec, testCfg)
		if r.Err != nil {
			t.Fatalf("%v: %v", sys, r.Err)
		}
		cells = append(cells, r.Extra["cells"])
	}
	if cells[0] != cells[1] || cells[1] != cells[2] {
		t.Fatalf("cell counts diverge across systems: %v", cells)
	}
}

func TestAdaptiveCopyingCopiesEverything(t *testing.T) {
	spec := AdaptiveSpec{N: 8, MaxDepth: 3, Iters: 10, Sched: "static",
		Electrodes: 2, SubdivThreshold: 4}
	cop := RunAdaptive(cstar.Copying, spec, testCfg)
	mcc := RunAdaptive(cstar.LCMmcc, spec, testCfg)
	if cop.Err != nil || mcc.Err != nil {
		t.Fatal(cop.Err, mcc.Err)
	}
	if cop.C.CopiedWords == 0 {
		t.Fatal("copying baseline copied nothing")
	}
	if mcc.C.CopiedWords != 0 {
		t.Fatal("LCM version should not copy explicitly")
	}
}

func TestUnstructuredAllSystems(t *testing.T) {
	spec := UnstructuredSpec{Nodes: 64, Edges: 256, Iters: 12, Seed: 7, Stride: 8}
	var cycles []int64
	for _, sys := range allSystems {
		r := RunUnstructured(sys, spec, testCfg)
		if r.Err != nil {
			t.Fatalf("%v: %v", sys, r.Err)
		}
		if r.Extra["cross_edges"] < 10 {
			t.Fatalf("graph should have many cross edges, got %v", r.Extra["cross_edges"])
		}
		cycles = append(cycles, r.Cycles)
	}
	// LCM should be at least competitive with the two-copy baseline.
	if float64(cycles[2]) > 1.2*float64(cycles[0]) {
		t.Fatalf("lcm-mcc (%d) much slower than copying (%d)", cycles[2], cycles[0])
	}
}

func TestUnstructuredOddIterations(t *testing.T) {
	r := RunUnstructured(cstar.Copying, UnstructuredSpec{Nodes: 32, Edges: 64, Iters: 5, Seed: 3, Stride: 8}, testCfg)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
}

func TestResultLabels(t *testing.T) {
	r := Result{Workload: "Stencil", Sched: "static"}
	if r.Label() != "Stencil-stat" {
		t.Fatalf("label %q", r.Label())
	}
	r.Sched = "dynamic"
	if r.Label() != "Stencil-dyn" {
		t.Fatalf("label %q", r.Label())
	}
	r.Sched = ""
	if r.Label() != "Stencil" {
		t.Fatalf("label %q", r.Label())
	}
}

// BenchmarkHitPathCells runs what lcmperf's hit-path workload times — the
// Stencil-static and Threshold cells at the paper's sizes under the Copying
// baseline, P=32, 12 steps — so that the profiler flags of go test apply to
// exactly those two cells (EXPERIMENTS.md, "hit-path: where host time and
// the 156 MB a pass go", gives the command).
func BenchmarkHitPathCells(b *testing.B) {
	stencil, threshold := PaperStencil("static"), PaperThreshold()
	stencil.Iters, threshold.Iters = 12, 12
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, r := range []Result{
			RunStencil(cstar.Copying, stencil, Config{P: 32}),
			RunThreshold(cstar.Copying, threshold, Config{P: 32}),
		} {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}
