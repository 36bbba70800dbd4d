package cstar

import (
	"fmt"

	"lcm/internal/core"
	"lcm/internal/memsys"
	"lcm/internal/tempest"
)

// Aggregates are C**'s parallel data collections.  They are allocated in
// the simulated global address space, so every Get/Set issued by an
// invocation flows through the machine's tagged load/store path and is
// visible to the active coherence protocol — exactly as a compiled C**
// program's loads and stores would be.
//
// Each aggregate also offers Peek/Poke, which access the home memory image
// directly: these are for sequential initialization before a run and
// verification after it, not for simulated execution, and they charge
// nothing.  Between runs the home image is current — coherent stores write
// through and reconciliation commits every loose copy — so there is nothing
// to drain first.

// agg is the common allocation bookkeeping.
type agg struct {
	M    *tempest.Machine
	R    *memsys.Region
	len  int
	elem uint32
}

func allocAgg(m *tempest.Machine, name string, elems int, elemSize uint32, pol core.Policy, home memsys.HomePolicy, homeNode int) agg {
	if elems <= 0 {
		// Record the misconfiguration instead of crashing at allocation
		// time; Freeze/Run will fail with it.  Clamp so the returned
		// aggregate is still a valid (if useless) object.
		m.RecordConfigError(fmt.Errorf("cstar: aggregate %q with %d elements", name, elems))
		elems = 1
	}
	r := m.AS.AllocAt(name, uint64(elems)*uint64(elemSize), memsys.KindCoherent, home, homeNode)
	if err := pol.ApplyTo(r); err != nil {
		m.RecordConfigError(fmt.Errorf("cstar: aggregate %q: %w", name, err))
	}
	return agg{M: m, R: r, len: elems, elem: elemSize}
}

// Len returns the number of elements.
func (a *agg) Len() int { return a.len }

// Region returns the underlying memory region.
func (a *agg) Region() *memsys.Region { return a.R }

// addr returns the address of element i.
func (a *agg) addr(i int) memsys.Addr {
	return a.R.Base + memsys.Addr(i)*memsys.Addr(a.elem)
}

// homeElem returns the element of type T at address addr of the home image.
func homeElem[T memsys.Word](a *agg, addr memsys.Addr) *T {
	return memsys.At[T](a.M.AS.HomeBytes(addr, int(memsys.SizeOf[T]())), 0)
}

// Vector is a one-dimensional aggregate of T.
type Vector[T memsys.Word] struct{ agg }

// The element types the C** runtime instantiates.
type (
	// VectorF32 is a one-dimensional aggregate of float32.
	VectorF32 = Vector[float32]
	// VectorF64 is a one-dimensional aggregate of float64.
	VectorF64 = Vector[float64]
	// VectorI32 is a one-dimensional aggregate of int32 (indices, counters,
	// quad-tree child pointers).
	VectorI32 = Vector[int32]
	// VectorI64 is a one-dimensional aggregate of int64.
	VectorI64 = Vector[int64]
)

func newVector[T memsys.Word](m *tempest.Machine, name string, n int, pol core.Policy, home memsys.HomePolicy) *Vector[T] {
	return &Vector[T]{allocAgg(m, name, n, memsys.SizeOf[T](), pol, home, 0)}
}

// NewVectorF32 allocates a float32 aggregate with the given memory policy.
func NewVectorF32(m *tempest.Machine, name string, n int, pol core.Policy, home memsys.HomePolicy) *VectorF32 {
	return newVector[float32](m, name, n, pol, home)
}

// NewVectorF64 allocates a float64 aggregate with the given memory policy.
func NewVectorF64(m *tempest.Machine, name string, n int, pol core.Policy, home memsys.HomePolicy) *VectorF64 {
	return newVector[float64](m, name, n, pol, home)
}

// NewVectorI32 allocates an int32 aggregate with the given memory policy.
func NewVectorI32(m *tempest.Machine, name string, n int, pol core.Policy, home memsys.HomePolicy) *VectorI32 {
	return newVector[int32](m, name, n, pol, home)
}

// NewVectorI64 allocates an int64 aggregate with the given memory policy.
func NewVectorI64(m *tempest.Machine, name string, n int, pol core.Policy, home memsys.HomePolicy) *VectorI64 {
	return newVector[int64](m, name, n, pol, home)
}

// Addr returns the address of element i.
func (v *Vector[T]) Addr(i int) memsys.Addr { return v.addr(i) }

// Get loads element i through node n.
func (v *Vector[T]) Get(n *tempest.Node, i int) T { return tempest.Read[T](n, v.addr(i)) }

// Set stores element i through node n.
func (v *Vector[T]) Set(n *tempest.Node, i int, x T) { tempest.Write(n, v.addr(i), x) }

// Peek reads element i from the home image (sequential, free).
func (v *Vector[T]) Peek(i int) T { return *homeElem[T](&v.agg, v.addr(i)) }

// Poke writes element i to the home image (sequential, free).
func (v *Vector[T]) Poke(i int, x T) { *homeElem[T](&v.agg, v.addr(i)) = x }

// GetSpan loads elements [i, i+len(dst)) into dst through node n.
func (v *Vector[T]) GetSpan(n *tempest.Node, i int, dst []T) { tempest.ReadSpan(n, v.addr(i), dst) }

// SetSpan stores src into elements [i, i+len(src)) through node n.
func (v *Vector[T]) SetSpan(n *tempest.Node, i int, src []T) { tempest.WriteSpan(n, v.addr(i), src) }

// ReadView loads elements [i, i+len(buf)) through node n as GetSpan does and
// returns them: in place when the vector is declared read-only for the phase
// (tempest.ReadView), in buf otherwise.
func (v *Vector[T]) ReadView(n *tempest.Node, i int, buf []T) []T {
	return tempest.ReadView(n, v.addr(i), buf)
}

// Strided maps invocation i of a call to elements [i*k, (i+1)*k) of v.
func (v *Vector[T]) Strided(k int) Elements {
	return func(lo, hi int) (*memsys.Region, memsys.Addr, memsys.Addr) {
		return v.R, v.addr(lo * k), v.addr(hi * k)
	}
}

// CopyRange copies elements [lo,hi) from src through node n, counting and
// charging the copied words: this is the compiler-generated explicit-copy
// loop of the Copying baseline.  The transfer runs block segment by block
// segment (see tempest.CopySpan) with accounting identical to the
// element-by-element loop.
func (v *Vector[T]) CopyRange(n *tempest.Node, src *Vector[T], lo, hi int) {
	tempest.CopySpan[T](n, v.addr(lo), src.addr(lo), hi-lo)
	n.Ctr.CopiedWords += int64(hi - lo)
	n.Charge(int64(hi-lo) * n.M.Cost.CopyPerWord)
}

// MatrixF32 is a two-dimensional row-major aggregate of float32 — the
// paper's mesh type: with 32-byte blocks a cache block holds eight
// single-precision floats from one row.  Rows are padded to a whole number
// of blocks so that two rows never share a block: row-partitioned
// computations then have a single writer per block per phase, which is
// both how the paper's meshes behave (1024 floats = 128 exact blocks) and
// a requirement of the simulator's data-movement rules.
type MatrixF32 struct {
	agg
	Rows, Cols int
	stride     int
}

// NewMatrixF32 allocates a rows x cols float32 aggregate.
func NewMatrixF32(m *tempest.Machine, name string, rows, cols int, pol core.Policy, home memsys.HomePolicy) *MatrixF32 {
	per := int(m.AS.BlockSize / 4)
	stride := (cols + per - 1) / per * per
	a := allocAgg(m, name, rows*stride, 4, pol, home, 0)
	return &MatrixF32{agg: a, Rows: rows, Cols: cols, stride: stride}
}

// Addr returns the address of element (i, j).
func (mx *MatrixF32) Addr(i, j int) memsys.Addr { return mx.addr(i*mx.stride + j) }

// Get loads element (i, j) through node n.
func (mx *MatrixF32) Get(n *tempest.Node, i, j int) float32 {
	return n.ReadF32(mx.Addr(i, j))
}

// Set stores element (i, j) through node n.
func (mx *MatrixF32) Set(n *tempest.Node, i, j int, x float32) {
	n.WriteF32(mx.Addr(i, j), x)
}

// Peek reads element (i, j) from the home image (sequential, free).
func (mx *MatrixF32) Peek(i, j int) float32 {
	return *homeElem[float32](&mx.agg, mx.Addr(i, j))
}

// Poke writes element (i, j) to the home image (sequential, free).
func (mx *MatrixF32) Poke(i, j int, x float32) {
	*homeElem[float32](&mx.agg, mx.Addr(i, j)) = x
}

// PeekRow copies row i of the home image into dst, min(len(dst), Cols)
// elements of it (sequential, free).
func (mx *MatrixF32) PeekRow(i int, dst []float32) {
	copy(dst, memsys.View[float32](mx.M.AS.HomeBytes(mx.Addr(i, 0), 4*mx.Cols)))
}

// PokeRow writes src into row i of the home image, min(len(src), Cols)
// elements of it (sequential, free).
func (mx *MatrixF32) PokeRow(i int, src []float32) {
	copy(memsys.View[float32](mx.M.AS.HomeBytes(mx.Addr(i, 0), 4*mx.Cols)), src)
}

// SetRowSpan stores src into elements (i, j) .. (i, j+len(src)) of one row
// through node n.  The span must stay within the row's padded stride.
func (mx *MatrixF32) SetRowSpan(n *tempest.Node, i, j int, src []float32) {
	mx.checkRowSpan(j, len(src))
	n.WriteSpanF32(mx.Addr(i, j), src)
}

// ReadRowView loads elements (i, j) .. (i, j+len(buf)) of one row through
// node n and returns them: in place when the matrix is declared read-only
// for the phase (tempest.ReadView), in buf otherwise.  The span must stay
// within the row's padded stride.
func (mx *MatrixF32) ReadRowView(n *tempest.Node, i, j int, buf []float32) []float32 {
	mx.checkRowSpan(j, len(buf))
	return tempest.ReadView(n, mx.Addr(i, j), buf)
}

// StoreRowView returns elements (i, j) .. (i, j+k) of one row for node n to
// store all k into, charged as SetRowSpan charges them, when n can store to
// every one of them without a fault (tempest.StoreView); nil otherwise,
// having charged nothing, and the caller stores through SetRowSpan.
func (mx *MatrixF32) StoreRowView(n *tempest.Node, i, j, k int) []float32 {
	mx.checkRowSpan(j, k)
	return tempest.StoreView[float32](n, mx.Addr(i, j), k)
}

// checkRowSpan panics unless a span of k elements from column j stays within
// a row's padded stride.
func (mx *MatrixF32) checkRowSpan(j, k int) {
	if j < 0 || j+k > mx.stride {
		panic(fmt.Sprintf("cstar: row span [%d,%d) outside row of stride %d", j, j+k, mx.stride))
	}
}

// Interior maps invocation idx of a call to the interior element (1 +
// idx/(Cols-2), 1 + idx%(Cols-2)) a stencil updates, and invocations [lo, hi)
// to the elements from lo's through hi-1's in row-major order.
func (mx *MatrixF32) Interior() Elements {
	inner := mx.Cols - 2
	return func(lo, hi int) (*memsys.Region, memsys.Addr, memsys.Addr) {
		return mx.R, mx.Addr(1+lo/inner, 1+lo%inner), mx.Addr(1+(hi-1)/inner, 1+(hi-1)%inner) + 4
	}
}

// CopyRows copies rows [lo,hi) from src through node n, counting and
// charging the copied words (the Copying baseline's whole-mesh copy).
// Each row moves block segment by block segment (see tempest.CopySpan).
func (mx *MatrixF32) CopyRows(n *tempest.Node, src *MatrixF32, lo, hi int) {
	for i := lo; i < hi; i++ {
		tempest.CopySpan[float32](n, mx.Addr(i, 0), src.Addr(i, 0), mx.Cols)
		n.Ctr.CopiedWords += int64(mx.Cols)
	}
	n.Charge(int64(hi-lo) * int64(mx.Cols) * n.M.Cost.CopyPerWord)
}

// Fill sets every home-image element to x (sequential initialization).
func (mx *MatrixF32) Fill(x float32) {
	for i := 0; i < mx.Rows; i++ {
		for j := 0; j < mx.Cols; j++ {
			mx.Poke(i, j, x)
		}
	}
}
