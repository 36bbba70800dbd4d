package memsys

import "unsafe"

// This file is the one place that knows how a typed element sits in
// simulated memory: exactly as it sits in the host's.  A block buffer is
// plain bytes; View lays a typed window over it, and every reader and
// writer of simulated data — the tagged load/store path, the span
// transfers, aggregate Peek/Poke, the reconcilers — goes through that
// window, so data is moved, never transcoded, and no observable can
// depend on the host's byte order (answers are values; checksums compare
// bytes with bytes of the same host).
//
// Alignment is a property of the allocation sites, not of the accesses.
// Every buffer that holds simulated data — the home image, line data and
// clean copies and pending images (the node arenas behind
// tempest.Node.BlockBuf), effect-ring snapshots, checkpoint images — is a
// block-size multiple carved out of a Go allocation of at least 8 bytes,
// which the runtime aligns to 8; blocks are powers of two >= 8, and typed
// accesses sit at multiples of their element size within a block.  So a
// view's base is aligned for its element type and the hit path carries no
// run-time alignment check: TestBlockBuffersAligned here and
// TestCheckpointImagesAligned in internal/tempest walk a buffer from each
// source and fail if its base is not 8-byte aligned, and under -race
// checkptr verifies that no view reaches outside the allocation it was
// taken from.
//
// It is also the only file in the tree that converts a pointer.

// Word is the set of element types simulated memory holds.
type Word interface {
	~uint32 | ~int32 | ~float32 | ~uint64 | ~int64 | ~float64
}

// SizeOf returns T's size in bytes, 4 or 8.
func SizeOf[T Word]() uint32 {
	var z T
	return uint32(unsafe.Sizeof(z))
}

// View returns b as a slice of T: a typed window onto a block buffer, or
// onto any element-aligned tail of one that holds at least one element.
// Trailing bytes that do not fill an element are left out.
func View[T Word](b []byte) []T {
	var z T
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/int(unsafe.Sizeof(z)))
}

// At returns the element of type T at byte offset off of b: the one-element
// view the scalar access paths and Peek/Poke use, checked against b's bounds
// like any slice expression.
func At[T Word](b []byte, off uint32) *T {
	var z T
	i := int(off)
	_ = b[i+int(unsafe.Sizeof(z))-1]
	return (*T)(unsafe.Pointer(&b[i]))
}

// Bytes is View's inverse: the bytes of s as they sit in simulated memory.
func Bytes[T Word](s []T) []byte {
	var z T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(z)))
}
