package mesh

import (
	"testing"
	"testing/quick"

	"lcm/internal/cost"
	"lcm/internal/cstar"
	"lcm/internal/tempest"
)

func TestSubtreeSlots(t *testing.T) {
	cases := map[int]int{0: 1, 1: 5, 2: 21, 3: 85, 4: 341}
	for depth, want := range cases {
		if got := SubtreeSlots(depth); got != want {
			t.Errorf("SubtreeSlots(%d) = %d, want %d", depth, got, want)
		}
	}
}

func newPool(t *testing.T, sys cstar.System, rows, cols, depth int) (*tempest.Machine, *QuadPool) {
	t.Helper()
	m := cstar.NewMachine(2, 32, cost.Default(), sys)
	q := New(m, "mesh", rows, cols, depth, cstar.DataPolicy(sys))
	m.Freeze()
	q.InitRoots()
	return m, q
}

func TestRootIDs(t *testing.T) {
	_, q := newPool(t, cstar.Copying, 4, 4, 2)
	if q.RootID(0, 0) != 0 {
		t.Fatal("root 0")
	}
	if q.RootID(0, 1) != int32(q.Stride()) {
		t.Fatal("root spacing")
	}
	if q.RootID(3, 3) != int32(15*q.Stride()) {
		t.Fatal("last root")
	}
	if q.Stride() < q.Slots() || q.Stride()%8 != 0 {
		t.Fatalf("stride %d not block-padded beyond %d slots", q.Stride(), q.Slots())
	}
	mustPanic(t, func() { q.RootID(4, 0) })
	mustPanic(t, func() { q.RootID(0, -1) })
}

func TestSubdivideAndVisit(t *testing.T) {
	m, q := newPool(t, cstar.Copying, 2, 2, 2)
	m.Run(func(n *tempest.Node) {
		if n.ID != 0 {
			return
		}
		root := q.RootID(0, 0)
		q.Val.Set(n, int(root), 5)
		ch := q.Subdivide(n, 0, root, 0)
		if ch == NoChild {
			t.Error("subdivide failed")
			return
		}
		// Children inherit the parent's value.
		for k := int32(0); k < 4; k++ {
			if got := q.Val.Get(n, int(ch+k)); got != 5 {
				t.Errorf("child %d value %v", k, got)
			}
		}
		// Subdivide one child; depth limit stops the next level.
		gc := q.Subdivide(n, 0, ch, 1)
		if gc == NoChild {
			t.Error("second subdivide failed")
		}
		if q.Subdivide(n, 0, gc, 2) != NoChild {
			t.Error("depth limit not enforced")
		}
		// Leaf visit: 3 children + 4 grandchildren = 7 leaves.
		leaves := 0
		maxDepth := 0
		q.VisitLeaves(n, root, 0, func(leaf int32, d int) {
			leaves++
			if d > maxDepth {
				maxDepth = d
			}
		})
		if leaves != 7 || maxDepth != 2 {
			t.Errorf("leaves=%d maxDepth=%d, want 7, 2", leaves, maxDepth)
		}
	})
}

func TestSubdividePoolExhaustion(t *testing.T) {
	m, q := newPool(t, cstar.Copying, 1, 1, 1) // 5 slots: root + 4
	m.Run(func(n *tempest.Node) {
		if n.ID != 0 {
			return
		}
		root := q.RootID(0, 0)
		ch := q.Subdivide(n, 0, root, 0)
		if ch == NoChild {
			t.Error("first subdivide should fit")
		}
		// Pool now full: subdividing a child must fail on capacity even
		// though depth would allow... depth 1 == MaxDepth, so blocked
		// by depth; verify count stayed consistent.
		if got := q.GetCount(n, 0); got != 5 {
			t.Errorf("count = %d, want 5", got)
		}
	})
	if q.CountCells() != 5 {
		t.Fatalf("CountCells = %d", q.CountCells())
	}
	if q.LeafCountSeq(0, 0) != 4 {
		t.Fatalf("LeafCountSeq = %d", q.LeafCountSeq(0, 0))
	}
}

// Property: any sequence of subdivision attempts keeps the pool invariants:
// count within bounds, children allocated consecutively inside the owning
// sub-pool, and leaf count == (count-1)/4*3 + 1.
func TestSubdivisionInvariantsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		m := cstar.NewMachine(1, 32, cost.Zero(), cstar.LCMmcc)
		q := New(m, "q", 2, 1, 3, cstar.DataPolicy(cstar.LCMmcc))
		m.Freeze()
		q.InitRoots()
		ok := true
		m.Run(func(n *tempest.Node) {
			if len(ops) > 40 {
				ops = ops[:40]
			}
			for _, op := range ops {
				rootIdx := int(op) % 2
				cnt := q.GetCount(n, rootIdx)
				// Pick an allocated cell; find its depth by walking.
				cell := int32(rootIdx*q.Stride()) + int32(op/2)%cnt
				depth := depthOf(n, q, rootIdx, cell)
				if depth < 0 {
					continue // unreachable slot (never happens if invariants hold)
				}
				if q.Child.Get(n, int(cell)) != NoChild {
					continue // interior already
				}
				q.Subdivide(n, rootIdx, cell, depth)
			}
			for rootIdx := 0; rootIdx < 2; rootIdx++ {
				cnt := int(q.GetCount(n, rootIdx))
				if cnt < 1 || cnt > q.Slots() || (cnt-1)%4 != 0 {
					ok = false
				}
				leaves := 0
				q.VisitLeaves(n, q.RootID(rootIdx, 0), 0, func(int32, int) { leaves++ })
				if leaves != (cnt-1)/4*3+1 {
					ok = false
				}
			}
			n.ReconcileCopies()
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// depthOf returns the depth of cell within root rootIdx's subtree, or -1.
func depthOf(n *tempest.Node, q *QuadPool, rootIdx int, cell int32) int {
	var walk func(c int32, d int) int
	walk = func(c int32, d int) int {
		if c == cell {
			return d
		}
		ch := q.Child.Get(n, int(c))
		if ch == NoChild {
			return -1
		}
		for k := int32(0); k < 4; k++ {
			if r := walk(ch+k, d+1); r >= 0 {
				return r
			}
		}
		return -1
	}
	return walk(q.RootID(rootIdx, 0), 0)
}

func TestShadowSharesTopology(t *testing.T) {
	m := cstar.NewMachine(1, 32, cost.Zero(), cstar.Copying)
	q := New(m, "q", 2, 2, 2, cstar.DataPolicy(cstar.Copying))
	s := NewShadow(m, "q.old", q, cstar.DataPolicy(cstar.Copying))
	m.Freeze()
	q.InitRoots()
	if s.Child != q.Child || s.Count != q.Count {
		t.Fatal("shadow does not share topology")
	}
	if s.Val == q.Val {
		t.Fatal("shadow shares values")
	}
	if s.Val.Len() != q.Val.Len() {
		t.Fatal("shadow size")
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
