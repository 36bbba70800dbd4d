package memsys

import (
	"testing"
	"unsafe"
)

// roundTrip writes one value of T at every element offset of a block through
// one access path and reads it back through every other: the view of the
// block's tail, the view of the whole block, At, and the bytes themselves.
func roundTrip[T Word](name string, val func(i int) T) func(*testing.T) {
	return func(t *testing.T) {
		size := int(SizeOf[T]())
		if size != int(unsafe.Sizeof(val(0))) {
			t.Fatalf("SizeOf[%s] = %d", name, size)
		}
		for _, bs := range []int{8, 32, 256} {
			block := make([]byte, bs)
			whole := View[T](block)
			if len(whole) != bs/size {
				t.Fatalf("bs %d: view has %d elements, want %d", bs, len(whole), bs/size)
			}
			for i := 0; i < bs/size; i++ {
				tail := View[T](block[i*size:])
				if len(tail) != bs/size-i {
					t.Fatalf("bs %d: tail view at element %d has %d elements", bs, i, len(tail))
				}
				tail[0] = val(i)
				if whole[i] != val(i) || *At[T](block, uint32(i*size)) != val(i) {
					t.Errorf("bs %d element %d: wrote %v through the tail view, whole view reads %v, At reads %v",
						bs, i, val(i), whole[i], *At[T](block, uint32(i*size)))
				}
				// The window is onto the buffer, not a copy of it.
				if b := Bytes(tail); &b[0] != &block[i*size] || len(b) != bs-i*size {
					t.Errorf("bs %d element %d: Bytes(View(b)) is not b", bs, i)
				}
				*At[T](block, uint32(i*size)) = val(i + 1)
				if tail[0] != val(i+1) {
					t.Errorf("bs %d element %d: wrote through At, view reads %v", bs, i, tail[0])
				}
			}
		}
		if got := View[T](make([]byte, 2*size+size/2)); len(got) != 2 {
			t.Errorf("a buffer of two and a half elements views as %d elements", len(got))
		}
	}
}

func TestViewRoundTripsEveryWord(t *testing.T) {
	t.Run("uint32", roundTrip("uint32", func(i int) uint32 { return 0xDEADBEEF - uint32(i) }))
	t.Run("int32", roundTrip("int32", func(i int) int32 { return int32(-7 * (i + 1)) }))
	t.Run("float32", roundTrip("float32", func(i int) float32 { return float32(i)*1.5 - 3 }))
	t.Run("uint64", roundTrip("uint64", func(i int) uint64 { return 0xCAFEBABE12345678 + uint64(i) }))
	t.Run("int64", roundTrip("int64", func(i int) int64 { return -(1 << 40) * int64(i+1) }))
	t.Run("float64", roundTrip("float64", func(i int) float64 { return float64(i)*-2.25 + 0.5 }))
}

func TestAtChecksBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("At past the end of the buffer did not panic")
		}
	}()
	At[uint64](make([]byte, 32), 28)
}
