package workloads

import (
	"fmt"
	"strings"
	"testing"

	"lcm/internal/cstar"
)

// TestReferencesCatchOneWrongElement holds each sequential reference to
// what it is for.  A small verified run passes; with one element of its final
// home image changed, the verifier fails with an error that names the
// element, its value and the reference's; with the element put back it
// passes again.
func TestReferencesCatchOneWrongElement(t *testing.T) {
	cfg := Config{P: 8, Verify: true}
	stencil := StencilSpec{N: 24, Iters: 4, Sched: "static"}
	threshold := ThresholdSpec{N: 24, Iters: 5, Threshold: 0.05, Sources: 3}
	for _, sys := range []cstar.System{cstar.Copying, cstar.LCMscc} {
		res, a := runStencil(sys, stencil, cfg)
		if res.Err != nil {
			t.Fatalf("Stencil/%v: %v", sys, res.Err)
		}
		for _, at := range [][2]int{{0, 0}, {11, 7}, {stencil.N - 1, stencil.N - 1}} {
			catchWrongElement(t, fmt.Sprintf("Stencil/%v", sys), a, at[0], at[1],
				func() error { return verifyStencil(a, stencil) })
		}
		res, tm := runThreshold(sys, threshold, cfg)
		if res.Err != nil {
			t.Fatalf("Threshold/%v: %v", sys, res.Err)
		}
		for _, at := range [][2]int{{0, 23}, {12, 5}, {threshold.N - 1, 0}} {
			catchWrongElement(t, fmt.Sprintf("Threshold/%v", sys), tm, at[0], at[1],
				func() error { return verifyThreshold(tm, threshold) })
		}
	}

	spec := AdaptiveSpec{N: 8, MaxDepth: 3, Iters: 10, Sched: "dynamic", Electrodes: 3, SubdivThreshold: 4}
	res, q := runAdaptive(cstar.Copying, spec, cfg)
	if res.Err != nil {
		t.Fatalf("Adaptive-dynamic: %v", res.Err)
	}
	if q.CountCells() == spec.N*spec.N {
		t.Fatal("Adaptive-dynamic: no root subdivided, so no cell count can be wrong")
	}
	verify := func() error { return verifyAdaptive(q, spec) }
	i, j := 5, 2
	root := int(q.RootID(i, j))
	v := q.Val.Peek(root)
	q.Val.Poke(root, v+1)
	wantErr(t, "Adaptive-dynamic value", verify(), fmt.Sprintf("root (%d,%d) = %v, want %v", i, j, v+1, v))
	q.Val.Poke(root, v)
	// Count holds one block per root, the count in its first element.
	c := q.RootIndex(i, j) * (q.Count.Len() / (spec.N * spec.N))
	cnt := q.Count.Peek(c)
	q.Count.Poke(c, cnt+4)
	wantErr(t, "Adaptive-dynamic count", verify(), fmt.Sprintf("root (%d,%d) allocated %d cells, want %d", i, j, cnt+4, cnt))
	q.Count.Poke(c, cnt)
	if err := verify(); err != nil {
		t.Errorf("Adaptive-dynamic: untouched image: %v", err)
	}
}

// catchWrongElement adds one to element (i, j) of mx's home image, requires
// verify to fail naming it, puts the element back and requires verify to
// pass.
func catchWrongElement(t *testing.T, name string, mx *cstar.MatrixF32, i, j int, verify func() error) {
	t.Helper()
	v := mx.Peek(i, j)
	mx.Poke(i, j, v+1)
	wantErr(t, name, verify(), fmt.Sprintf("[%d][%d] = %v, want %v", i, j, v+1, v))
	mx.Poke(i, j, v)
	if err := verify(); err != nil {
		t.Errorf("%s: untouched image: %v", name, err)
	}
}

func wantErr(t *testing.T, name string, err error, want string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("%s: verifier returned %v, want an error containing %q", name, err, want)
	}
}

// The Verify benchmarks time each sequential reference with its comparison
// alone, on the final image of one unverified run of the size lcmperf runs
// it at: Stencil-static and Threshold as hit-path runs them (paper size, 12
// steps), Adaptive-dynamic as irregular-fattree does (scale 4).

func BenchmarkVerifyStencil(b *testing.B) {
	spec := PaperStencil("static")
	spec.Iters = 12
	res, final := runStencil(cstar.Copying, spec, Config{P: 32})
	benchVerify(b, res, func() error { return verifyStencil(final, spec) })
}

func BenchmarkVerifyThreshold(b *testing.B) {
	spec := PaperThreshold()
	spec.Iters = 12
	res, final := runThreshold(cstar.Copying, spec, Config{P: 32})
	benchVerify(b, res, func() error { return verifyThreshold(final, spec) })
}

func BenchmarkVerifyAdaptive(b *testing.B) {
	spec := PaperAdaptive("dynamic")
	spec.N, spec.Iters = spec.N/4, spec.Iters/4
	res, q := runAdaptive(cstar.Copying, spec, Config{P: 32})
	benchVerify(b, res, func() error { return verifyAdaptive(q, spec) })
}

func benchVerify(b *testing.B, res Result, verify func() error) {
	if res.Err != nil {
		b.Fatal(res.Err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := verify(); err != nil {
			b.Fatal(err)
		}
	}
}
