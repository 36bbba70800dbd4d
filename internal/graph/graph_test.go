package graph

import (
	"testing"
	"testing/quick"
)

// build is Build for sizes the test knows to be valid.
func build(t *testing.T, n, e int, seed uint64) *Topology {
	t.Helper()
	tp, err := Build(n, e, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestBuildBasics(t *testing.T) {
	tp := build(t, 256, 1024, 42)
	if tp.N != 256 {
		t.Fatal("N")
	}
	if len(tp.Targets) != 2048 {
		t.Fatalf("targets = %d, want 2048", len(tp.Targets))
	}
	if tp.Offsets[256] != 2048 {
		t.Fatalf("offsets end = %d", tp.Offsets[256])
	}
	// Ring guarantees min degree >= 2.
	for v := 0; v < 256; v++ {
		if tp.Degree(v) < 2 {
			t.Fatalf("vertex %d degree %d", v, tp.Degree(v))
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := build(t, 64, 200, 7)
	b := build(t, 64, 200, 7)
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] {
			t.Fatal("same seed, different graph")
		}
	}
	c := build(t, 64, 200, 8)
	same := true
	for i := range a.Targets {
		if a.Targets[i] != c.Targets[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds, identical graph")
	}
}

// Sizes Build cannot satisfy are refused with an error: too few edges for
// the ring, and the vertex counts under which drawing a pair of distinct
// vertices would never end (one) or divide by zero (none).
func TestBuildValidatesEdgeCount(t *testing.T) {
	for _, c := range [][2]int{{10, 5}, {1, 4}, {0, 0}, {-3, 2}} {
		if tp, err := Build(c[0], c[1], 1); err == nil {
			t.Errorf("Build(%d, %d) = %+v, want an error", c[0], c[1], tp)
		}
	}
	if tp := build(t, 2, 2, 1); tp.Degree(0) != 2 || tp.Degree(1) != 2 {
		t.Errorf("the smallest graph, two vertices joined twice, has degrees %d and %d", tp.Degree(0), tp.Degree(1))
	}
}

// Property: CSR is symmetric (w appears in v's list as often as v in w's)
// and degrees sum to 2E.
func TestCSRSymmetryProperty(t *testing.T) {
	f := func(seed uint64, n8 uint8, extra uint8) bool {
		n := int(n8)%60 + 4
		e := n + int(extra)%64
		tp := build(t, n, e, seed)
		total := 0
		count := make(map[[2]int32]int)
		for v := 0; v < n; v++ {
			total += tp.Degree(v)
			for k := tp.Offsets[v]; k < tp.Offsets[v+1]; k++ {
				count[[2]int32{int32(v), tp.Targets[k]}]++
			}
		}
		if total != 2*e {
			return false
		}
		for key, c := range count {
			if count[[2]int32{key[1], key[0]}] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossEdgesSubstantial(t *testing.T) {
	// The paper's configuration: a random graph statically partitioned
	// has many cross-processor edges.
	tp := build(t, 256, 1024, 42)
	cross := tp.CrossEdges(32)
	if cross < 1024/4 {
		t.Fatalf("only %d cross edges; graph too local for the benchmark's premise", cross)
	}
}
