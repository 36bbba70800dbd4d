// Reconciliation functions: the second program-controlled point of the RSM
// model (Section 3).  When a modified copy of a block returns to its home,
// the region's reconciliation function folds each modified element into the
// home's pending image.  The default Overwrite function implements C**'s
// "exactly one modified value survives" rule; the arithmetic reconcilers
// implement C** reduction assignments and the Section 7.1 global
// reductions; Func lets applications supply their own.
package core

import (
	"bytes"

	"lcm/internal/memsys"
)

// Reconciler folds one modified element of a returning copy into the
// pending reconciled image of the block at its home.
//
// Merge is called only for elements whose incoming value differs from the
// clean (pre-phase) value, element by element.  pending, incoming and clean
// are ElemSize-byte slices of block buffers, read and written through
// memsys.View; pending initially equals clean.
// prior reports whether another returning copy already modified this
// element in the current phase.  Merge returns true when the call
// constitutes a write-write conflict (two copies wrote different values to
// an element whose policy allows only one writer).
type Reconciler interface {
	// ElemSize is the element granularity in bytes (4 or 8).
	ElemSize() uint32
	Merge(pending, incoming, clean []byte, prior bool) bool
}

// Overwrite is the C** default reconciliation: the value from one modifying
// invocation survives.  If two copies modified the same element with
// different values the program has a (semantically tolerated, but counted)
// conflict; the last returning copy wins, mirroring the paper's "exactly
// one modified value will be visible".
type Overwrite struct {
	// Elem is the element granularity in bytes; zero means 4.
	Elem uint32
}

// ElemSize implements Reconciler.
func (o Overwrite) ElemSize() uint32 {
	if o.Elem == 0 {
		return 4
	}
	return o.Elem
}

// Merge implements Reconciler.
func (o Overwrite) Merge(pending, incoming, _ []byte, prior bool) bool {
	conflict := prior && !bytes.Equal(pending, incoming)
	copy(pending, incoming)
	return conflict
}

// sum reconciles by accumulating each copy's contribution
// (incoming - clean) into the pending value: the C** "%+=" reduction.
type sum[T memsys.Word] struct{}

// ElemSize implements Reconciler.
func (sum[T]) ElemSize() uint32 { return memsys.SizeOf[T]() }

// Merge implements Reconciler.
func (sum[T]) Merge(pending, incoming, clean []byte, _ bool) bool {
	p := memsys.View[T](pending)
	p[0] += memsys.View[T](incoming)[0] - memsys.View[T](clean)[0]
	return false
}

type (
	// SumF32 is the "%+=" reduction for single-precision data.
	SumF32 = sum[float32]
	// SumF64 is SumF32 for double-precision data.
	SumF64 = sum[float64]
	// SumI64 accumulates 64-bit integer contributions; exact, so it is also
	// what the property tests use to check reduction reconciliation against
	// a serial fold.
	SumI64 = sum[int64]
)

// mergeExtreme keeps incoming in pending when it lies beyond it: above for
// max, below otherwise.
func mergeExtreme[T memsys.Word](pending, incoming []byte, max bool) bool {
	p, in := memsys.View[T](pending), memsys.View[T](incoming)[0]
	if max && in > p[0] || !max && in < p[0] {
		p[0] = in
	}
	return false
}

// MinF64 reconciles with the minimum of all written values and the initial
// value (the C** "%<?=" style reduction).
type MinF64 struct{}

// ElemSize implements Reconciler.
func (MinF64) ElemSize() uint32 { return 8 }

// Merge implements Reconciler.
func (MinF64) Merge(pending, incoming, _ []byte, _ bool) bool {
	return mergeExtreme[float64](pending, incoming, false)
}

// MaxF64 reconciles with the maximum of all written values and the initial
// value.
type MaxF64 struct{}

// ElemSize implements Reconciler.
func (MaxF64) ElemSize() uint32 { return 8 }

// Merge implements Reconciler.
func (MaxF64) Merge(pending, incoming, _ []byte, _ bool) bool {
	return mergeExtreme[float64](pending, incoming, true)
}

// ProdF64 reconciles by multiplying contributions: pending *= incoming/clean.
// Clean values of zero contribute the incoming value directly.
type ProdF64 struct{}

// ElemSize implements Reconciler.
func (ProdF64) ElemSize() uint32 { return 8 }

// Merge implements Reconciler.
func (ProdF64) Merge(pending, incoming, clean []byte, _ bool) bool {
	p, in, cl := memsys.View[float64](pending), memsys.View[float64](incoming)[0], memsys.View[float64](clean)[0]
	if cl == 0 {
		p[0] = in
	} else {
		p[0] *= in / cl
	}
	return false
}

// Func adapts an application-supplied merge function to the Reconciler
// interface, the fully general RSM reconciliation hook.
type Func struct {
	// Elem is the element granularity in bytes (4 or 8).
	Elem uint32
	// F folds incoming into pending given clean; it returns true to
	// report a conflict.  Semantics are otherwise identical to
	// Reconciler.Merge.
	F func(pending, incoming, clean []byte, prior bool) bool
}

// ElemSize implements Reconciler.
func (f Func) ElemSize() uint32 { return f.Elem }

// Merge implements Reconciler.
func (f Func) Merge(pending, incoming, clean []byte, prior bool) bool {
	return f.F(pending, incoming, clean, prior)
}
