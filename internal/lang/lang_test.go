package lang

import (
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"lcm/internal/cost"
	"lcm/internal/cstar"
	"lcm/internal/tempest"
)

const stencilSrc = `
// four-point relaxation
parallel stencil(A) {
    A[i][j] = (A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]) * 0.25;
}`

const thresholdSrc = `
parallel threshold(A) {
    let v = A[i][j];
    let nv = (A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]) * 0.25;
    if (abs(nv - v) > 0.05) {
        A[i][j] = nv;
    }
}`

const sumSrc = `
parallel sum(A) {
    total %+= A[i][j];
    peak %max= A[i][j];
    low %min= A[i][j];
}`

const dynamicSrc = `
parallel scatter(A) {
    let t = A[i][j] * 3;
    A[i][t - t + j] = t;
}`

func TestLexBasics(t *testing.T) {
	toks, err := lex("A[i-1] %+= 0.25 // comment\n<= %max=")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		texts = append(texts, tk.text)
	}
	want := []string{"A", "[", "i", "-", "1", "]", "%+=", "0.25", "<=", "%max=", ""}
	if len(texts) != len(want) {
		t.Fatalf("tokens %q", texts)
	}
	for k := range want {
		if texts[k] != want[k] {
			t.Fatalf("token %d = %q, want %q", k, texts[k], want[k])
		}
	}
}

func TestLexRejectsBadChar(t *testing.T) {
	if _, err := lex("a @ b"); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("err = %v", err)
	}
}

func TestParseStencil(t *testing.T) {
	fn, err := Parse(stencilSrc)
	if err != nil {
		t.Fatal(err)
	}
	if fn.Name != "stencil" || fn.Agg != "A" || len(fn.Body) != 1 {
		t.Fatalf("fn = %+v", fn)
	}
	if _, ok := fn.Body[0].(*storeStmt); !ok {
		t.Fatalf("body[0] is %T", fn.Body[0])
	}
}

func TestParseReductions(t *testing.T) {
	fn, err := Parse(sumSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(fn.Reductions) != 3 {
		t.Fatalf("reductions = %v", fn.Reductions)
	}
	if fn.Reductions[0] != (Reduction{"total", RedSum}) ||
		fn.Reductions[1] != (Reduction{"peak", RedMax}) ||
		fn.Reductions[2] != (Reduction{"low", RedMin}) {
		t.Fatalf("reductions = %v", fn.Reductions)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                                     // no 'parallel'
		"parallel f(A) { A[i][j] = ; }",        // missing expr
		"parallel f(A) { A[] = 1; }",           // empty subscript
		"parallel f(A) { x = 1; }",             // unknown statement form
		"parallel f(A) { let i = 1; }",         // reserved name
		"parallel f(A) { A[i][j] = y; }",       // unknown name
		"parallel f(A) { t %+= 1; t %max= 1;}", // operator mismatch
		"parallel f(A) { A[i][j] = 1;",         // unterminated block
		"parallel f(A) { A[i][j] = 1; } junk",  // trailing input
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestAnalyzeStencil(t *testing.T) {
	p, err := Compile(stencilSrc)
	if err != nil {
		t.Fatal(err)
	}
	want := cstar.AccessSummary{WritesOwnElementOnly: true, ReadsSharedData: true}
	if p.Summary != want {
		t.Fatalf("summary %+v", p.Summary)
	}
	if !AlwaysWritesOwn(p.Fn) {
		t.Fatal("stencil writes unconditionally")
	}
}

func TestAnalyzeThreshold(t *testing.T) {
	p, err := Compile(thresholdSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Summary.WritesOwnElementOnly || !p.Summary.ReadsSharedData || p.Summary.DynamicStructure {
		t.Fatalf("summary %+v", p.Summary)
	}
	// The store is conditional: the two-copy lowering must use the
	// conservative copy phase, not a pointer swap.
	if AlwaysWritesOwn(p.Fn) {
		t.Fatal("conditional store misclassified as unconditional")
	}
}

func TestAnalyzeReductionOnly(t *testing.T) {
	p, err := Compile(sumSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Summary.HasReduction || p.Summary.WritesOwnElementOnly {
		t.Fatalf("summary %+v", p.Summary)
	}
}

func TestAnalyzeDynamicSubscript(t *testing.T) {
	p, err := Compile(dynamicSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Summary.DynamicStructure {
		t.Fatalf("summary %+v: data-dependent subscript not detected", p.Summary)
	}
}

// runProgram executes src on a machine and compares against SeqApply.
func runProgram(t *testing.T, src string, sys cstar.System, rows, cols, iters int, init func(i, j int) float32) (*Instance, map[string]float64) {
	t.Helper()
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	m := cstar.NewMachine(4, 32, cost.Default(), sys)
	inst := p.Instantiate(m, rows, cols, sys)
	m.Freeze()
	inst.Init(init)
	m.Run(func(n *tempest.Node) {
		if err := inst.RunNode(n, iters, cstar.StaticSchedule{}); err != nil {
			t.Error(err)
		}
	})
	wantMesh, wantReds := p.SeqApply(rows, cols, iters, init)
	got := inst.Result(iters)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if got.Peek(i, j) != wantMesh[i][j] {
				t.Fatalf("%v: A[%d][%d] = %v, want %v", sys, i, j, got.Peek(i, j), wantMesh[i][j])
			}
		}
	}
	return inst, wantReds
}

func meshInit(i, j int) float32 {
	return float32((i*13+j*7)%23) / 3
}

func TestCompiledStencilMatchesReference(t *testing.T) {
	for _, sys := range []cstar.System{cstar.Copying, cstar.LCMscc, cstar.LCMmcc} {
		runProgram(t, stencilSrc, sys, 16, 16, 4, meshInit)
	}
}

func TestCompiledThresholdMatchesReference(t *testing.T) {
	// Conditional stores: exercises the conservative copy-phase lowering
	// under Copying and sparse modification under LCM.
	for _, sys := range []cstar.System{cstar.Copying, cstar.LCMscc, cstar.LCMmcc} {
		runProgram(t, thresholdSrc, sys, 16, 16, 5, meshInit)
	}
}

func TestCompiledReductionsMatchReference(t *testing.T) {
	// Floating-point sums combine in flush-arrival order, which is not
	// deterministic, so compare with a tight relative tolerance; min and
	// max are order-independent and must be exact.
	for _, sys := range []cstar.System{cstar.Copying, cstar.LCMmcc} {
		for _, iters := range []int{1, 3} {
			inst, want := runProgram(t, sumSrc, sys, 12, 12, iters, meshInit)
			for name, w := range want {
				got := inst.Reduction(name).Var().Peek(0)
				if name == "total" {
					if d := got - w; d > 1e-6*w || d < -1e-6*w {
						t.Fatalf("%v iters=%d: %s = %v, want %v", sys, iters, name, got, w)
					}
				} else if got != w {
					t.Fatalf("%v iters=%d: %s = %v, want %v", sys, iters, name, got, w)
				}
			}
		}
	}
}

func TestCompiledOddIterationParity(t *testing.T) {
	runProgram(t, stencilSrc, cstar.Copying, 12, 12, 3, meshInit)
	runProgram(t, stencilSrc, cstar.Copying, 12, 12, 2, meshInit)
}

func TestRuntimeBoundsFaultReported(t *testing.T) {
	src := `parallel bad(A) { A[i][j] = A[i + 100][j]; }`
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	m := cstar.NewMachine(4, 32, cost.Default(), cstar.LCMmcc)
	inst := p.Instantiate(m, 8, 8, cstar.LCMmcc)
	m.Freeze()
	inst.Init(func(i, j int) float32 { return 0 })
	var errs atomic.Int32
	m.Run(func(n *tempest.Node) {
		if err := inst.RunNode(n, 2, cstar.StaticSchedule{}); err != nil {
			errs.Add(1)
		}
	})
	if errs.Load() == 0 {
		t.Fatal("runtime bounds fault not reported")
	}
	if inst.Err() == nil || !strings.Contains(inst.Err().Error(), "out of range") {
		t.Fatalf("Err() = %v", inst.Err())
	}
}

// Property: for random affine stencil coefficients and mesh seeds, the
// compiled program matches the sequential reference on every system.
func TestCompiledProgramProperty(t *testing.T) {
	f := func(seed uint8, a, b, c uint8) bool {
		// Coefficients in [0,3); offsets +-1.
		ca := float32(a%3) / 2
		cb := float32(b%3) / 3
		cc := float32(c%3) / 4
		src := buildSrc(ca, cb, cc)
		p, err := Compile(src)
		if err != nil {
			return false
		}
		init := func(i, j int) float32 {
			return float32((i*int(seed+1)+j*3)%17) / 2
		}
		wantMesh, _ := p.SeqApply(10, 10, 3, init)
		for _, sys := range []cstar.System{cstar.Copying, cstar.LCMmcc} {
			m := cstar.NewMachine(3, 32, cost.Zero(), sys)
			inst := p.Instantiate(m, 10, 10, sys)
			m.Freeze()
			inst.Init(init)
			ok := true
			m.Run(func(n *tempest.Node) {
				if err := inst.RunNode(n, 3, cstar.RotatingSchedule{}); err != nil {
					ok = false
				}
			})
			if !ok {
				return false
			}
			got := inst.Result(3)
			for i := 0; i < 10; i++ {
				for j := 0; j < 10; j++ {
					if got.Peek(i, j) != wantMesh[i][j] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func buildSrc(a, b, c float32) string {
	return `parallel gen(A) {
		A[i][j] = A[i-1][j] * ` + ftoa(a) + ` + A[i][j+1] * ` + ftoa(b) + ` + A[i][j] * ` + ftoa(c) + `;
	}`
}

func ftoa(v float32) string {
	switch {
	case v == 0:
		return "0"
	case v == 0.5:
		return "0.5"
	default:
		// Render as fraction to stay within the literal grammar.
		for den := 2; den <= 4; den++ {
			for num := 0; num <= den; num++ {
				if float32(num)/float32(den) == v {
					return itoa(num) + "/" + itoa(den)
				}
			}
		}
		return "1"
	}
}

func itoa(v int) string { return string(rune('0' + v)) }

const vectorSrc = `
parallel smooth(V) {
    V[i] = (V[i-1] + V[i+1]) * 0.5;
    total %+= V[i];
}`

func TestParseVectorRank(t *testing.T) {
	fn, err := Parse(vectorSrc)
	if err != nil {
		t.Fatal(err)
	}
	if fn.Rank != 1 {
		t.Fatalf("rank = %d, want 1", fn.Rank)
	}
	// Mixed ranks rejected.
	if _, err := Parse(`parallel f(A) { A[i] = A[i][j]; }`); err == nil {
		t.Fatal("mixed-rank use accepted")
	}
}

func TestAnalyzeVector(t *testing.T) {
	p, err := Compile(vectorSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Summary.WritesOwnElementOnly || !p.Summary.ReadsSharedData {
		t.Fatalf("summary %+v", p.Summary)
	}
	if !AlwaysWritesOwn(p.Fn) {
		t.Fatal("unconditional own-element store not recognized in 1-D")
	}
}

func TestCompiledVectorMatchesReference(t *testing.T) {
	p, err := Compile(vectorSrc)
	if err != nil {
		t.Fatal(err)
	}
	const n, iters = 64, 5
	init1 := func(i, j int) float32 { return float32((i*7)%13) / 2 }
	wantMesh, wantReds := p.SeqApply(n, 0, iters, init1)
	for _, sys := range []cstar.System{cstar.Copying, cstar.LCMscc, cstar.LCMmcc} {
		m := cstar.NewMachine(4, 32, cost.Default(), sys)
		inst := p.Instantiate(m, n, 0, sys)
		m.Freeze()
		inst.Init(init1)
		m.Run(func(nd *tempest.Node) {
			if err := inst.RunNode(nd, iters, cstar.StaticSchedule{}); err != nil {
				t.Error(err)
			}
		})
		got := inst.Result(iters)
		for i := 0; i < n; i++ {
			if got.Peek(i, 0) != wantMesh[i][0] {
				t.Fatalf("%v: V[%d] = %v, want %v", sys, i, got.Peek(i, 0), wantMesh[i][0])
			}
		}
		gotRed := inst.Reduction("total").Var().Peek(0)
		w := wantReds["total"]
		if d := gotRed - w; d > 1e-6*w || d < -1e-6*w {
			t.Fatalf("%v: total = %v, want %v", sys, gotRed, w)
		}
	}
}
