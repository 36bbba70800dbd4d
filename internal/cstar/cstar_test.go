package cstar

import (
	"testing"
	"testing/quick"

	"lcm/internal/core"
	"lcm/internal/cost"
	"lcm/internal/memsys"
	"lcm/internal/tempest"
)

func TestSystemStrings(t *testing.T) {
	if Copying.String() != "copying" || LCMscc.String() != "lcm-scc" || LCMmcc.String() != "lcm-mcc" {
		t.Fatal("system strings")
	}
	if Copying.IsLCM() || !LCMscc.IsLCM() || !LCMmcc.IsLCM() {
		t.Fatal("IsLCM")
	}
	if ModeLCM.String() != "lcm" || ModeCopying.String() != "copying" {
		t.Fatal("mode strings")
	}
	// ParseSystem inverts String and also takes the checker's short names.
	for name, want := range map[string]System{
		"copying": Copying, "lcm-scc": LCMscc, "scc": LCMscc, "lcm-mcc": LCMmcc, "mcc": LCMmcc,
	} {
		if got, err := ParseSystem(name); err != nil || got != want {
			t.Errorf("ParseSystem(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "all", "LCM-scc", "mesi"} {
		if _, err := ParseSystem(name); err == nil {
			t.Errorf("ParseSystem(%q) accepted an unknown name", name)
		}
	}
}

func TestLowerDecisions(t *testing.T) {
	stencil := AccessSummary{WritesOwnElementOnly: true, ReadsSharedData: true}
	adaptive := AccessSummary{DynamicStructure: true, ReadsSharedData: true}
	independent := AccessSummary{WritesOwnElementOnly: true}

	// Coherent system: only explicit copying is correct.
	if p := Lower(stencil, Copying); p.Mode != ModeCopying {
		t.Fatalf("stencil on copying -> %v", p)
	}
	// LCM: directives, flushing between invocations when reads may see
	// other invocations' writes.
	if p := Lower(stencil, LCMmcc); p.Mode != ModeLCM || !p.FlushBetweenInvocations {
		t.Fatalf("stencil on lcm -> %+v", p)
	}
	if p := Lower(adaptive, LCMscc); p.Mode != ModeLCM || !p.FlushBetweenInvocations {
		t.Fatalf("adaptive on lcm -> %+v", p)
	}
	// Provably independent invocations need no flush.
	if p := Lower(independent, LCMmcc); p.Mode != ModeLCM || p.FlushBetweenInvocations {
		t.Fatalf("independent on lcm -> %+v", p)
	}
}

// Property: for any p, total, iter, both schedulers produce an exact
// disjoint cover of [0, total).
func TestSchedulersPartitionProperty(t *testing.T) {
	scheds := []Scheduler{StaticSchedule{}, RotatingSchedule{}}
	f := func(p8 uint8, total16 uint16, iter8 uint8) bool {
		p := int(p8)%16 + 1
		total := int(total16) % 5000
		iter := int(iter8)
		for _, s := range scheds {
			seen := make([]bool, total)
			for node := 0; node < p; node++ {
				lo, hi := s.Range(node, p, iter, total)
				if lo > hi || lo < 0 || hi > total {
					return false
				}
				for i := lo; i < hi; i++ {
					if seen[i] {
						return false // overlap
					}
					seen[i] = true
				}
			}
			for _, ok := range seen {
				if !ok {
					return false // gap
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRotatingScheduleActuallyRotates(t *testing.T) {
	s := RotatingSchedule{}
	lo0, _ := s.Range(0, 4, 0, 100)
	lo1, _ := s.Range(0, 4, 1, 100)
	if lo0 == lo1 {
		t.Fatal("rotation did not move node 0's chunk")
	}
	// Full cycle returns.
	lo4, _ := s.Range(0, 4, 4, 100)
	if lo0 != lo4 {
		t.Fatal("rotation period wrong")
	}
}

func TestSchedulerNames(t *testing.T) {
	if (StaticSchedule{}).Name() != "static" || (RotatingSchedule{}).Name() != "dynamic" {
		t.Fatal("scheduler names")
	}
}

// vectorRow is one element type of the Vector[T] table; its columns are the
// aggregate's operations.  Every column runs on a fresh two-node machine
// under the given system, with 24 elements so spans cross block boundaries.
type vectorRow struct {
	name                                  string
	getSet, peekPoke, span, addrCopyRange func(t *testing.T, sys System)
}

func newVectorRow[T memsys.Word](name string, val func(i int) T) vectorRow {
	const n = 24
	setup := func(sys System) (*tempest.Machine, *Vector[T], *Vector[T]) {
		m := NewMachine(2, 32, cost.Default(), sys)
		v := newVector[T](m, name, n, DataPolicy(sys), memsys.Interleaved)
		w := newVector[T](m, name+"'", n, DataPolicy(sys), memsys.Interleaved)
		m.Freeze()
		return m, v, w
	}
	return vectorRow{
		name: name,
		// Set on one node, visible to Get on the other after the parallel call.
		getSet: func(t *testing.T, sys System) {
			m, v, _ := setup(sys)
			m.Run(func(nd *tempest.Node) {
				if nd.ID == 0 {
					v.Set(nd, 2, val(2))
					if got := v.Get(nd, 2); got != val(2) {
						t.Errorf("own Get = %v, want %v", got, val(2))
					}
				}
				nd.ReconcileCopies()
				if got := v.Get(nd, 2); got != val(2) {
					t.Errorf("node %d Get after reconcile = %v, want %v", nd.ID, got, val(2))
				}
			})
			m.Run(func(nd *tempest.Node) { nd.Barrier() }) // nothing hangs on reuse
		},
		// Poke before a run is what Get loads; what a run stores is what Peek
		// reads afterwards, with nothing to drain in between.
		peekPoke: func(t *testing.T, sys System) {
			m, v, _ := setup(sys)
			v.Poke(5, val(5))
			if got := v.Peek(5); got != val(5) {
				t.Fatalf("Peek = %v, want %v", got, val(5))
			}
			m.Run(func(nd *tempest.Node) {
				if nd.ID == 1 {
					if got := v.Get(nd, 5); got != val(5) {
						t.Errorf("Get of poked element = %v, want %v", got, val(5))
					}
					v.Set(nd, 6, val(6))
				}
				nd.ReconcileCopies()
			})
			if got := v.Peek(6); got != val(6) {
				t.Errorf("Peek of stored element = %v, want %v", got, val(6))
			}
			if v.Len() != n || v.Region().Name != name {
				t.Errorf("metadata: Len %d, region %q", v.Len(), v.Region().Name)
			}
		},
		// Spans move whole slices through the span engine; values round-trip
		// and are visible to element-wise Get on the same node.
		span: func(t *testing.T, sys System) {
			m, v, _ := setup(sys)
			m.Run(func(nd *tempest.Node) {
				if nd.ID == 0 {
					want := make([]T, 11) // starts and ends mid-block
					for i := range want {
						want[i] = val(i)
					}
					v.SetSpan(nd, 3, want)
					got := make([]T, len(want))
					v.GetSpan(nd, 3, got)
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("span[%d] = %v, want %v", i, got[i], want[i])
						}
						if e := v.Get(nd, 3+i); e != want[i] {
							t.Errorf("element readback [%d] = %v, want %v", i, e, want[i])
						}
					}
				}
				nd.ReconcileCopies()
			})
		},
		// Elements are laid out at their size; CopyRange moves them through
		// the machine and counts what it moved.
		addrCopyRange: func(t *testing.T, sys System) {
			m, src, dst := setup(sys)
			if got, want := src.Addr(1)-src.Addr(0), memsys.Addr(memsys.SizeOf[T]()); got != want {
				t.Fatalf("element stride %d, want %d", got, want)
			}
			for i := 0; i < n; i++ {
				src.Poke(i, val(i))
			}
			m.Run(func(nd *tempest.Node) {
				if nd.ID == 0 {
					dst.CopyRange(nd, src, 1, 21)
				}
				nd.ReconcileCopies()
			})
			for i := 0; i < n; i++ {
				want := val(i)
				if i < 1 || i >= 21 {
					want = 0
				}
				if got := dst.Peek(i); got != want {
					t.Errorf("copied [%d] = %v, want %v", i, got, want)
				}
			}
			if c := m.TotalCounters(); c.CopiedWords != 20 {
				t.Errorf("copied words %d, want 20", c.CopiedWords)
			}
		},
	}
}

// vectorRows is the table: the four element types the runtime instantiates.
var vectorRows = []vectorRow{
	newVectorRow("f32", func(i int) float32 { return float32(i)*1.5 + 0.25 }),
	newVectorRow("f64", func(i int) float64 { return float64(i)*-2.5 - 1 }),
	newVectorRow("i32", func(i int) int32 { return int32(i*i) - 3 }),
	newVectorRow("i64", func(i int) int64 { return int64(i)*-5 + 1<<40 }),
}

// eachVector runs one column of the table for every element type under the
// Copying baseline and LCM-mcc.
func eachVector(t *testing.T, column func(vectorRow) func(*testing.T, System)) {
	for _, row := range vectorRows {
		for _, sys := range []System{Copying, LCMmcc} {
			t.Run(row.name+"/"+sys.String(), func(t *testing.T) { column(row)(t, sys) })
		}
	}
}

func TestVectorRoundTrips(t *testing.T) {
	eachVector(t, func(r vectorRow) func(*testing.T, System) { return r.getSet })
	eachVector(t, func(r vectorRow) func(*testing.T, System) { return r.peekPoke })
}

// (The name is from when only the I64 vector had spans to test.)
func TestVectorI64Spans(t *testing.T) {
	eachVector(t, func(r vectorRow) func(*testing.T, System) { return r.span })
}

func TestMatrixRowMajorAddressing(t *testing.T) {
	m := NewMachine(1, 32, cost.Zero(), Copying)
	mx := NewMatrixF32(m, "m", 4, 8, core.Coherent(), memsys.Interleaved)
	m.Freeze()
	// One row of 8 float32 = exactly one 32-byte block.
	for j := 0; j < 7; j++ {
		if mx.M.AS.Block(mx.Addr(1, j)) != mx.M.AS.Block(mx.Addr(1, j+1)) {
			t.Fatal("row not contiguous within block")
		}
	}
	if mx.M.AS.Block(mx.Addr(1, 0)) == mx.M.AS.Block(mx.Addr(2, 0)) {
		t.Fatal("rows alias a block")
	}
	mx.Poke(2, 5, 42)
	if mx.Peek(2, 5) != 42 {
		t.Fatal("peek/poke")
	}
}

func TestMatrixFillAndCopyRows(t *testing.T) {
	m := NewMachine(2, 32, cost.Default(), Copying)
	src := NewMatrixF32(m, "src", 4, 8, core.Coherent(), memsys.Interleaved)
	dst := NewMatrixF32(m, "dst", 4, 8, core.Coherent(), memsys.Interleaved)
	m.Freeze()
	src.Fill(3)
	m.Run(func(n *tempest.Node) {
		if n.ID == 0 {
			dst.CopyRows(n, src, 0, 2)
		} else {
			dst.CopyRows(n, src, 2, 4)
		}
		n.Barrier()
	})
	for i := 0; i < 4; i++ {
		for j := 0; j < 8; j++ {
			if dst.Peek(i, j) != 3 {
				t.Fatalf("dst[%d][%d] = %v", i, j, dst.Peek(i, j))
			}
		}
	}
	c := m.TotalCounters()
	if c.CopiedWords != 32 {
		t.Fatalf("copied words = %d, want 32", c.CopiedWords)
	}
}

func TestReduceMatchesSerialAcrossSystems(t *testing.T) {
	const N = 1000
	want := float64(N*(N-1)) / 2
	for _, sys := range []System{Copying, LCMscc, LCMmcc} {
		t.Run(sys.String(), func(t *testing.T) {
			m := NewMachine(4, 32, cost.Default(), sys)
			red := NewReduceF64(m, "total", sys)
			m.Freeze()
			m.Run(func(n *tempest.Node) {
				lo, hi := StaticSchedule{}.Range(n.ID, m.P, 0, N)
				for i := lo; i < hi; i++ {
					red.Add(n, float64(i))
				}
				red.Reduce(n)
				if got := red.Value(n); got != want {
					t.Errorf("node %d total = %v, want %v", n.ID, got, want)
				}
			})
		})
	}
}

func TestReduceMultiRound(t *testing.T) {
	for _, sys := range []System{Copying, LCMmcc} {
		m := NewMachine(2, 32, cost.Default(), sys)
		red := NewReduceF64(m, "t", sys)
		m.Freeze()
		m.Run(func(n *tempest.Node) {
			for round := 0; round < 3; round++ {
				red.ResetPartials(n)
				n.Barrier()
				red.Add(n, 1)
				red.Reduce(n)
			}
			if got := red.Value(n); got != 6 {
				t.Errorf("%v: after 3 rounds total = %v, want 6", sys, got)
			}
		})
	}
}

// The central C** semantics property: for any random mesh and any memory
// system and schedule, a parallel stencil step equals the sequential
// two-array reference.
func TestParallelStencilEqualsSequential(t *testing.T) {
	const rows, cols = 12, 16
	systems := []System{Copying, LCMscc, LCMmcc}
	scheds := []Scheduler{StaticSchedule{}, RotatingSchedule{}}
	f := func(seed int64) bool {
		// Deterministic pseudo-random mesh from the seed.
		mesh := make([][]float32, rows)
		x := uint64(seed)
		for i := range mesh {
			mesh[i] = make([]float32, cols)
			for j := range mesh[i] {
				x = x*6364136223846793005 + 1442695040888963407
				mesh[i][j] = float32(x>>40) / 1000
			}
		}
		// Sequential reference: one four-point stencil step.
		want := make([][]float32, rows)
		for i := range want {
			want[i] = make([]float32, cols)
			copy(want[i], mesh[i])
		}
		for i := 1; i < rows-1; i++ {
			for j := 1; j < cols-1; j++ {
				want[i][j] = (mesh[i-1][j] + mesh[i+1][j] + mesh[i][j-1] + mesh[i][j+1]) / 4
			}
		}
		for _, sys := range systems {
			for _, sched := range scheds {
				if !stencilStepMatches(sys, sched, mesh, want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// stencilStepMatches runs one parallel stencil step and compares to want.
func stencilStepMatches(sys System, sched Scheduler, mesh [][]float32, want [][]float32) bool {
	rows, cols := len(mesh), len(mesh[0])
	m := NewMachine(4, 32, cost.Default(), sys)
	a := NewMatrixF32(m, "A", rows, cols, DataPolicy(sys), memsys.Interleaved)
	var old *MatrixF32
	if sys == Copying {
		old = NewMatrixF32(m, "A.old", rows, cols, core.Coherent(), memsys.Interleaved)
	}
	m.Freeze()
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			a.Poke(i, j, mesh[i][j])
			if old != nil {
				old.Poke(i, j, mesh[i][j])
			}
		}
	}
	plan := Lower(AccessSummary{WritesOwnElementOnly: true, ReadsSharedData: true}, sys)
	total := (rows - 2) * (cols - 2)
	m.Run(func(n *tempest.Node) {
		ForEach(n, sched, plan, 0, total, func(idx int) {
			i := 1 + idx/(cols-2)
			j := 1 + idx%(cols-2)
			src := a
			if plan.Mode == ModeCopying {
				src = old
			}
			v := (src.Get(n, i-1, j) + src.Get(n, i+1, j) + src.Get(n, i, j-1) + src.Get(n, i, j+1)) / 4
			a.Set(n, i, j, v)
		})
		EndParallel(n)
	})
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if a.Peek(i, j) != want[i][j] {
				return false
			}
		}
	}
	return true
}

// (The name is from when only the I32 vector had a CopyRange to test.)
func TestAggregateAddrsAndI32Copy(t *testing.T) {
	eachVector(t, func(r vectorRow) func(*testing.T, System) { return r.addrCopyRange })
}
