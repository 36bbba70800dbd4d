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

func TestVectorRoundTrips(t *testing.T) {
	m := NewMachine(2, 32, cost.Default(), LCMmcc)
	vf32 := NewVectorF32(m, "f32", 10, core.LooselyCoherent(), memsys.Interleaved)
	vf64 := NewVectorF64(m, "f64", 10, core.LooselyCoherent(), memsys.Interleaved)
	vi32 := NewVectorI32(m, "i32", 10, core.LooselyCoherent(), memsys.Interleaved)
	vi64 := NewVectorI64(m, "i64", 10, core.LooselyCoherent(), memsys.Interleaved)
	m.Freeze()
	// Sequential init via Poke, then parallel read via Get.
	vf32.Poke(3, 1.5)
	vf64.Poke(4, 2.5)
	vi32.Poke(5, -3)
	vi64.Poke(6, 1<<40)
	m.Run(func(n *tempest.Node) {
		if n.ID == 0 {
			if vf32.Get(n, 3) != 1.5 || vf64.Get(n, 4) != 2.5 || vi32.Get(n, 5) != -3 || vi64.Get(n, 6) != 1<<40 {
				t.Error("poke/get mismatch")
			}
			vf32.Set(n, 0, 9)
			vi64.Set(n, 0, 7)
		}
		n.ReconcileCopies() // every node joins the reconciliation barrier
		if n.ID == 0 && (vf32.Get(n, 0) != 9 || vi64.Get(n, 0) != 7) {
			t.Error("set/reconcile/get mismatch")
		}
	})
	m.Run(func(n *tempest.Node) { n.Barrier() }) // nothing hangs on reuse
	if vf32.Peek(0) != 9 || vi64.Peek(0) != 7 {
		t.Fatal("home image lacks reconciled values")
	}
	if vf32.Len() != 10 || vf32.Region().Name != "f32" {
		t.Fatal("metadata")
	}
}

// The I64 span accessors move whole slices through the machine's
// amortized span engine; values must round-trip and be visible to
// element-wise Get on the same node.
func TestVectorI64Spans(t *testing.T) {
	m := NewMachine(2, 32, cost.Default(), LCMmcc)
	v := NewVectorI64(m, "i64", 24, core.LooselyCoherent(), memsys.Interleaved)
	m.Freeze()
	m.Run(func(n *tempest.Node) {
		if n.ID == 0 {
			want := make([]int64, 11) // crosses block boundaries
			for i := range want {
				want[i] = int64(i)*-5 + 2
			}
			v.SetSpan(n, 3, want)
			got := make([]int64, len(want))
			v.GetSpan(n, 3, got)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("span[%d] = %d, want %d", i, got[i], want[i])
				}
				if e := v.Get(n, 3+i); e != want[i] {
					t.Errorf("element readback [%d] = %d, want %d", i, e, want[i])
				}
			}
		}
		n.Barrier()
	})
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
	DrainToHome(m)
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
	DrainToHome(m)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if a.Peek(i, j) != want[i][j] {
				return false
			}
		}
	}
	return true
}

func TestAggregateAddrsAndI32Copy(t *testing.T) {
	m := NewMachine(2, 32, cost.Default(), Copying)
	f32 := NewVectorF32(m, "f32", 8, core.Coherent(), memsys.Interleaved)
	f64 := NewVectorF64(m, "f64", 8, core.Coherent(), memsys.Interleaved)
	i32s := NewVectorI32(m, "i32s", 8, core.Coherent(), memsys.Interleaved)
	i32d := NewVectorI32(m, "i32d", 8, core.Coherent(), memsys.Interleaved)
	i64 := NewVectorI64(m, "i64", 8, core.Coherent(), memsys.Interleaved)
	m.Freeze()
	if f32.Addr(1)-f32.Addr(0) != 4 || f64.Addr(1)-f64.Addr(0) != 8 ||
		i32s.Addr(1)-i32s.Addr(0) != 4 || i64.Addr(1)-i64.Addr(0) != 8 {
		t.Fatal("element strides")
	}
	for i := 0; i < 8; i++ {
		i32s.Poke(i, int32(i*i))
	}
	m.Run(func(n *tempest.Node) {
		if n.ID == 0 {
			i32d.CopyRange(n, i32s, 0, 8)
			f32.Set(n, 2, 1.5)
			i64.Set(n, 3, -9)
		}
		n.Barrier()
		if n.ID == 1 {
			if f32.Get(n, 2) != 1.5 || i64.Get(n, 3) != -9 {
				t.Error("cross-node reads")
			}
		}
	})
	DrainToHome(m)
	for i := 0; i < 8; i++ {
		if i32d.Peek(i) != int32(i*i) {
			t.Fatalf("copied i32d[%d] = %d", i, i32d.Peek(i))
		}
	}
	if c := m.TotalCounters(); c.CopiedWords != 8 {
		t.Fatalf("copied words %d", c.CopiedWords)
	}
}
