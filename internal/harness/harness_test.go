package harness

import (
	"bytes"
	"strings"
	"testing"

	"lcm/internal/cost"
	"lcm/internal/cstar"
	"lcm/internal/net"
	"lcm/internal/workloads"
)

// smallSuite runs the whole campaign at an aggressively reduced scale so
// the test stays fast while still spanning all systems and workloads.
func smallSuite(buf *bytes.Buffer) *Suite {
	s := New(buf)
	s.Cfg = workloads.Config{P: 8, Verify: true}
	s.Scale = 16
	return s
}

// runGrid runs the six Table-1 / Figure 2-3 cells.
func runGrid(t *testing.T, s *Suite) []map[cstar.System]workloads.Result {
	t.Helper()
	rows, err := s.RunCells(GridCells())
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestRunPaperEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	s := smallSuite(&buf)
	rows := runGrid(t, s)
	s.Table1(rows)
	s.Fig2(rows)
	s.Fig3(rows)
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, row := range rows {
		for sys, r := range row {
			if r.Err != nil {
				t.Fatalf("%s/%v failed verification: %v", r.Label(), sys, r.Err)
			}
			if r.Cycles <= 0 {
				t.Fatalf("%s/%v: zero cycles", r.Label(), sys)
			}
		}
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "Figure 2", "Figure 3",
		"Stencil-stat", "Stencil-dyn", "Adaptive-stat", "Adaptive-dyn",
		"Threshold", "Unstructured", "miss:scc", "clean:mcc"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

func TestPaperShapeClaims(t *testing.T) {
	// The qualitative claims of Figures 2-3 must hold even at reduced
	// scale (the quantitative factors are checked at paper scale in
	// EXPERIMENTS.md).
	var buf bytes.Buffer
	s := smallSuite(&buf)
	s.Scale = 8
	rows := runGrid(t, s)
	stencilStat, stencilDyn := rows[0], rows[1]
	adaptiveDyn := rows[3]
	threshold, unstructured := rows[4], rows[5]

	// Stencil-stat: Stache wins big.
	if !(stencilStat[cstar.Copying].Cycles < stencilStat[cstar.LCMmcc].Cycles) {
		t.Error("Stencil-stat: Stache should beat LCM-mcc")
	}
	// LCM-scc slower than LCM-mcc with far more misses.
	if !(stencilStat[cstar.LCMscc].Cycles > stencilStat[cstar.LCMmcc].Cycles) {
		t.Error("Stencil-stat: scc should be slower than mcc")
	}
	if !(stencilStat[cstar.LCMscc].C.Misses > 3*stencilStat[cstar.LCMmcc].C.Misses) {
		t.Errorf("Stencil-stat: scc misses %d should be several times mcc's %d",
			stencilStat[cstar.LCMscc].C.Misses, stencilStat[cstar.LCMmcc].C.Misses)
	}
	// Stencil-dyn: the baseline's advantage must collapse; its misses
	// roughly double LCM-mcc's.
	if !(stencilDyn[cstar.Copying].C.Misses > stencilDyn[cstar.LCMmcc].C.Misses) {
		t.Error("Stencil-dyn: Copying should miss more than LCM-mcc")
	}
	// Adaptive-dyn, Threshold: LCM-mcc faster than the baseline.
	if !(adaptiveDyn[cstar.LCMmcc].Cycles < adaptiveDyn[cstar.Copying].Cycles) {
		t.Error("Adaptive-dyn: LCM-mcc should beat explicit copying")
	}
	if !(threshold[cstar.LCMmcc].Cycles < threshold[cstar.Copying].Cycles) {
		t.Error("Threshold: LCM-mcc should beat explicit copying")
	}
	if !(threshold[cstar.LCMmcc].Cycles < threshold[cstar.LCMscc].Cycles) {
		t.Error("Threshold: mcc should beat scc")
	}
	// Unstructured: LCM at least competitive.
	if float64(unstructured[cstar.LCMmcc].Cycles) > 1.1*float64(unstructured[cstar.Copying].Cycles) {
		t.Error("Unstructured: LCM-mcc should not lose to the baseline")
	}
}

func TestReductionAblation(t *testing.T) {
	var buf bytes.Buffer
	s := smallSuite(&buf)
	res := s.RunReduction(1 << 12)
	if len(res) != 3 {
		t.Fatal("want 3 strategies")
	}
	want := res[0].Extra["value"]
	for _, r := range res {
		if r.Extra["value"] != want {
			t.Fatalf("strategy %s result %v != %v", r.Sched, r.Extra["value"], want)
		}
	}
	// The lock must be the bottleneck; the RSM reduction competitive
	// with hand-written partials.
	lock, partials, rsm := res[0], res[1], res[2]
	if !(lock.Cycles > partials.Cycles && lock.Cycles > rsm.Cycles) {
		t.Errorf("lock (%d) should be slowest (partials %d, rsm %d)",
			lock.Cycles, partials.Cycles, rsm.Cycles)
	}
	if float64(rsm.Cycles) > 1.5*float64(partials.Cycles) {
		t.Errorf("rsm reduction (%d) should be comparable to partials (%d)", rsm.Cycles, partials.Cycles)
	}
}

func TestFalseSharingAblation(t *testing.T) {
	var buf bytes.Buffer
	s := smallSuite(&buf)
	res := s.RunFalseSharing(4, 20)
	if strings.Contains(buf.String(), "WARNING") {
		t.Fatalf("false-sharing kernel lost updates:\n%s", buf.String())
	}
	var stache, mcc workloads.Result
	for _, r := range res {
		switch r.System {
		case cstar.Copying:
			stache = r
		case cstar.LCMmcc:
			mcc = r
		}
	}
	// Invalidation coherence must transfer blocks per writer per step;
	// LCM's private copies avoid the write-steal traffic.
	if !(stache.C.Misses > 0 && mcc.C.Misses > 0) {
		t.Fatal("no traffic measured")
	}
	if !(mcc.Cycles < stache.Cycles) {
		t.Errorf("LCM-mcc (%d cycles) should beat the invalidation protocol (%d) under false sharing",
			mcc.Cycles, stache.Cycles)
	}
}

// The ablations build their machines through the suite's configuration like
// every cell does, so the interconnect flag reaches them: 7.4 on the fat tree
// is a different experiment from 7.4 on the uniform model, and says so.
func TestAblationsHonourNetFlag(t *testing.T) {
	uniform := smallSuite(&bytes.Buffer{}).RunFalseSharing(4, 20)
	s := smallSuite(&bytes.Buffer{})
	s.Cfg.Net = &net.Config{Model: "fattree"}
	fattree := s.RunFalseSharing(4, 20)
	if len(fattree) != len(uniform) {
		t.Fatalf("%d variants on the fat tree, %d on the uniform model", len(fattree), len(uniform))
	}
	for i, r := range fattree {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Sched, r.Err)
		}
		if r.Net != "fattree" || uniform[i].Net != "uniform" {
			t.Errorf("%s: Net %q on the fat tree, %q on the uniform model", r.Sched, r.Net, uniform[i].Net)
		}
		if r.Cycles == uniform[i].Cycles {
			t.Errorf("%s: %d cycles under both interconnect models", r.Sched, r.Cycles)
		}
	}
}

func TestStaleDataAblation(t *testing.T) {
	var buf bytes.Buffer
	s := smallSuite(&buf)
	staleness := []int{0, 2, 4}
	res := s.RunStaleData(64, 12, staleness)
	if len(res) != 3 {
		t.Fatal("want 3 settings")
	}
	for i := 1; i < len(res); i++ {
		if !(res[i].C.Misses < res[i-1].C.Misses) {
			t.Errorf("misses should fall with staleness: %d then %d", res[i-1].C.Misses, res[i].C.Misses)
		}
		if lag := int(res[i].Extra["max_lag"]); lag > staleness[i] {
			t.Errorf("staleness bound violated: lag %d > allowed %d", lag, staleness[i])
		}
	}
	if lag := res[0].Extra["max_lag"]; lag != 0 {
		t.Errorf("stale=0 must be fresh, lag %v", lag)
	}
}

func TestSpecScaling(t *testing.T) {
	s := New(&bytes.Buffer{})
	s.Scale = 4
	if sp := s.StencilSpec("static"); sp.N != 256 || sp.Iters != 12 {
		t.Fatalf("scaled stencil %+v", sp)
	}
	s.Scale = 1
	if sp := s.StencilSpec("dynamic"); sp.N != 1024 || sp.Iters != 50 || sp.Sched != "dynamic" {
		t.Fatalf("paper stencil %+v", sp)
	}
	if sp := s.UnstructuredSpec(); sp.Nodes != 256 || sp.Edges != 1024 || sp.Iters != 512 {
		t.Fatalf("paper unstructured %+v", sp)
	}
	s.Scale = 1000
	if sp := s.StencilSpec("static"); sp.N < 16 || sp.Iters < 3 {
		t.Fatalf("scale floor %+v", sp)
	}
}

func TestBlockSizeSweep(t *testing.T) {
	var buf bytes.Buffer
	s := smallSuite(&buf)
	res := s.RunBlockSizeSweep([]uint32{16, 32, 64})
	if len(res) != 3 || len(res[0]) != 3 {
		t.Fatalf("rows = %d x %d, want 3 sizes x 3 systems", len(res), len(res[0]))
	}
	// Larger blocks must reduce LCM-mcc misses (spatial amortization).
	if r := res[0][mcc]; r.System != cstar.LCMmcc || r.Err != nil {
		t.Fatalf("row position mcc holds %v (err %v)", r.System, r.Err)
	}
	m16, m32, m64 := res[0][mcc].C.Misses, res[1][mcc].C.Misses, res[2][mcc].C.Misses
	if !(m16 > m32 && m32 > m64) {
		t.Fatalf("mcc misses not monotone in block size: %d, %d, %d", m16, m32, m64)
	}
	if !strings.Contains(buf.String(), "block size") {
		t.Fatal("missing sweep table")
	}
}

func TestProcessorSweep(t *testing.T) {
	var buf bytes.Buffer
	s := smallSuite(&buf)
	res := s.RunProcessorSweep([]int{2, 4, 8})
	if len(res) != 3 || len(res[0]) != 2 {
		t.Fatalf("rows = %d x %d, want 3 sizes x 2 systems", len(res), len(res[0]))
	}
	// More processors must shorten the run for both systems.
	for i, sys := range sweepPair {
		c2, c4, c8 := res[0][i].Cycles, res[1][i].Cycles, res[2][i].Cycles
		if res[0][i].System != sys || !(c2 > c4 && c4 > c8) {
			t.Fatalf("%v does not scale: %d, %d, %d", sys, c2, c4, c8)
		}
	}
}

func TestCommitSweep(t *testing.T) {
	var buf bytes.Buffer
	s := smallSuite(&buf)
	// Amplify per-block commit work so the strategy difference is well
	// above the compute floor at test scale.
	cm := cost.Default()
	cm.InvalidatePerCopy = 20000
	cm.LocalFill = 5000
	s.Cfg.CostModel = &cm
	res := s.RunCommitSweep([]int{2, 8})
	const parallel, serial = 0, 1
	// Serializing the commit must hurt, and hurt more at larger P.
	if !(res[1][serial].Cycles > res[1][parallel].Cycles) {
		t.Fatalf("serial commit (%d) not slower than parallel (%d) at P=8",
			res[1][serial].Cycles, res[1][parallel].Cycles)
	}
	slow2 := float64(res[0][serial].Cycles) / float64(res[0][parallel].Cycles)
	slow8 := float64(res[1][serial].Cycles) / float64(res[1][parallel].Cycles)
	if slow8 <= slow2 {
		t.Fatalf("bottleneck should grow with P: slowdown %0.2f at P=2, %0.2f at P=8", slow2, slow8)
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	s := smallSuite(&buf)
	s.Cfg.Verify = false
	rows := runGrid(t, s)
	var csv bytes.Buffer
	if err := WriteCSV(&csv, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 1+6*3 {
		t.Fatalf("csv has %d lines, want %d", len(lines), 1+6*3)
	}
	if !strings.HasPrefix(lines[0], "workload,system,sched,cycles") {
		t.Fatalf("header %q", lines[0])
	}
	for _, l := range lines[1:] {
		if strings.Count(l, ",") != strings.Count(lines[0], ",") {
			t.Fatalf("ragged row %q", l)
		}
	}
}
