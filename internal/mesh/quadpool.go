// Package mesh implements the adaptive-mesh substrate of Section 6.2: a
// two-dimensional grid of root cells, each the root of a quad-tree that
// selectively subdivides where the solution needs finer detail (the
// "electric potentials in a box" program).
//
// Cells live in aggregates in the simulated global address space, so every
// traversal and update flows through the active memory system.  To keep
// simulated runs deterministic across memory systems and schedules, each
// root cell owns a fixed sub-pool of cell slots sized for a full tree of
// the maximum depth, and subdivision bump-allocates inside the owning
// sub-pool only.  (The paper's program allocates quad-tree nodes from a
// per-processor heap; a deterministic per-subtree arena exercises the same
// memory-system behaviour without making miss counts depend on goroutine
// interleaving.)
package mesh

import (
	"fmt"

	"lcm/internal/core"
	"lcm/internal/cstar"
	"lcm/internal/memsys"
	"lcm/internal/tempest"
)

// NoChild marks a leaf in the children index.
const NoChild = int32(-1)

// SubtreeSlots returns the number of cell slots a root cell needs for a
// full quad-tree of the given maximum depth (root at depth 0):
// 1 + 4 + 16 + ... + 4^maxDepth.
func SubtreeSlots(maxDepth int) int {
	slots, pow := 0, 1
	for d := 0; d <= maxDepth; d++ {
		slots += pow
		pow *= 4
	}
	return slots
}

// QuadPool is the cell storage for an adaptive mesh: values, child links
// and per-subtree allocation counts, all in simulated memory.
//
// Cell identifiers are absolute pool indices.  Root cell (i, j) of an
// R x C mesh has id (i*C+j)*SubtreeSlots(maxDepth).
type QuadPool struct {
	M        *tempest.Machine
	Rows     int
	Cols     int
	MaxDepth int
	slots    int // logical per-subtree slot count
	stride   int // slots padded to a whole number of blocks
	cstride  int // per-root Count stride (one block per root)

	// Val holds cell values; under the Copying baseline the workload
	// allocates a second QuadPool view sharing topology (see NewShadow).
	Val *cstar.VectorF32
	// Child holds the pool index of the first of four children, or
	// NoChild for leaves.  Children are allocated as four consecutive
	// slots.
	Child *cstar.VectorI32
	// Count holds, per root cell, the number of slots allocated in its
	// sub-pool (at least 1: the root itself).
	Count *cstar.VectorI32
}

// New allocates a QuadPool with the given value policy for Val, and the
// same policy for topology (Child/Count), which the paper's program also
// updates inside parallel functions.
func New(m *tempest.Machine, name string, rows, cols, maxDepth int, pol core.Policy) *QuadPool {
	slots := SubtreeSlots(maxDepth)
	// Pad each sub-pool to a whole number of blocks so distinct root
	// cells (distinct writers) never share a block, and give each root
	// its own Count block: the simulator requires a single writer per
	// block per phase, and the paper's per-processor heaps had the same
	// effect.
	per := int(m.AS.BlockSize / 4)
	stride := (slots + per - 1) / per * per
	n := rows * cols * stride
	q := &QuadPool{M: m, Rows: rows, Cols: cols, MaxDepth: maxDepth,
		slots: slots, stride: stride, cstride: per}
	q.Val = cstar.NewVectorF32(m, name+".val", n, pol, memsys.Interleaved)
	q.Child = cstar.NewVectorI32(m, name+".child", n, pol, memsys.Interleaved)
	q.Count = cstar.NewVectorI32(m, name+".count", rows*cols*per, pol, memsys.Interleaved)
	return q
}

// NewShadow allocates a second value array for the Copying baseline's
// two-copy strategy.  Topology (Child/Count) is shared with q.
func NewShadow(m *tempest.Machine, name string, q *QuadPool, pol core.Policy) *QuadPool {
	s := *q
	s.Val = cstar.NewVectorF32(m, name+".val", q.Val.Len(), pol, memsys.Interleaved)
	return &s
}

// InitRoots sets every root cell to a leaf with value 0 and allocation
// count 1, sequentially (home image), for use before the machine runs.
func (q *QuadPool) InitRoots() {
	for i := 0; i < q.Val.Len(); i++ {
		q.Child.Poke(i, NoChild)
	}
	for c := 0; c < q.Rows*q.Cols; c++ {
		q.Count.Poke(c*q.cstride, 1)
	}
}

// RootID returns the pool index of root cell (i, j).
func (q *QuadPool) RootID(i, j int) int32 {
	if i < 0 || i >= q.Rows || j < 0 || j >= q.Cols {
		panic(fmt.Sprintf("mesh: root (%d,%d) out of range", i, j))
	}
	return int32((i*q.Cols + j) * q.stride)
}

// RootIndex returns the linear root index of root cell (i, j) for Count.
func (q *QuadPool) RootIndex(i, j int) int { return i*q.Cols + j }

// Slots returns the logical per-subtree slot count (maximum cells in one
// full tree).
func (q *QuadPool) Slots() int { return q.slots }

// Stride returns the padded per-subtree allocation span in cells.
func (q *QuadPool) Stride() int { return q.stride }

// Subtrees maps invocation r of a call over the root cells to root r's
// sub-pool: its values, child links and allocation count.  A shadow's
// topology is q's.
func (q *QuadPool) Subtrees() []cstar.Elements {
	return []cstar.Elements{q.Val.Strided(q.stride), q.Child.Strided(q.stride), q.Count.Strided(q.cstride)}
}

// GetCount reads root rootIdx's allocation count through node n.
func (q *QuadPool) GetCount(n *tempest.Node, rootIdx int) int32 {
	return q.Count.Get(n, rootIdx*q.cstride)
}

// Subdivide turns leaf cell into an interior cell with four children that
// inherit its value, allocating from the sub-pool of root cell rootIdx.
// It returns the first child id, or NoChild when the sub-pool is full or
// the tree would exceed MaxDepth (depth is the leaf's depth).
// Must run through node n (all accesses are simulated).
func (q *QuadPool) Subdivide(n *tempest.Node, rootIdx int, cell int32, depth int) int32 {
	if depth >= q.MaxDepth {
		return NoChild
	}
	cnt := q.GetCount(n, rootIdx)
	if int(cnt)+4 > q.slots {
		return NoChild
	}
	base := int32(rootIdx*q.stride) + cnt
	v := q.Val.Get(n, int(cell))
	for k := int32(0); k < 4; k++ {
		q.Val.Set(n, int(base+k), v)
		q.Child.Set(n, int(base+k), NoChild)
	}
	q.Child.Set(n, int(cell), base)
	q.Count.Set(n, rootIdx*q.cstride, cnt+4)
	return base
}

// VisitLeaves calls fn for every leaf of the subtree rooted at cell,
// passing the leaf id and its depth.  Traversal reads Child through node n.
func (q *QuadPool) VisitLeaves(n *tempest.Node, cell int32, depth int, fn func(leaf int32, depth int)) {
	ch := q.Child.Get(n, int(cell))
	if ch == NoChild {
		fn(cell, depth)
		return
	}
	for k := int32(0); k < 4; k++ {
		q.VisitLeaves(n, ch+k, depth+1, fn)
	}
}

// CountSeq reads root (i, j)'s allocation count from the home image
// (sequential verification helper).
func (q *QuadPool) CountSeq(i, j int) int32 {
	return q.Count.Peek(q.RootIndex(i, j) * q.cstride)
}

// CountCells returns the total allocated cells (sequential, home image).
func (q *QuadPool) CountCells() int {
	total := 0
	for c := 0; c < q.Rows*q.Cols; c++ {
		total += int(q.Count.Peek(c * q.cstride))
	}
	return total
}

// LeafCountSeq returns the number of leaves of root cell (i, j) using the
// home image (sequential verification helper).
func (q *QuadPool) LeafCountSeq(i, j int) int {
	var walk func(cell int32) int
	walk = func(cell int32) int {
		ch := q.Child.Peek(int(cell))
		if ch == NoChild {
			return 1
		}
		total := 0
		for k := int32(0); k < 4; k++ {
			total += walk(ch + k)
		}
		return total
	}
	return walk(q.RootID(i, j))
}
