package memsys_test

import (
	"fmt"
	"testing"
	"unsafe"

	"lcm/internal/core"
	"lcm/internal/cost"
	"lcm/internal/memsys"
	"lcm/internal/tempest"
)

// aligned fails the test unless buf starts on an 8-byte boundary.
func aligned(t *testing.T, source string, buf []byte) {
	t.Helper()
	if p := uintptr(unsafe.Pointer(unsafe.SliceData(buf))); p%8 != 0 {
		t.Errorf("%s at %#x is not 8-byte aligned", source, p)
	}
}

// TestBlockBuffersAligned is the other half of view.go's alignment rule: it
// walks the buffers simulated data lives in — the home image, line data,
// LCM-mcc's local clean copies, and, as a reconciler is handed them, the
// home's pending image and the effect-ring snapshot a flush carried there —
// on a P=2 machine under both LCM variants at the smallest and the largest
// block size, and fails if any of them does not start on an 8-byte boundary.
// The reconciler works on 8-byte elements, so every element it sees sits at a
// multiple of 8 from its buffer's base.  (Checkpoint images are private to
// tempest; TestCheckpointImagesAligned there covers them.)
func TestBlockBuffersAligned(t *testing.T) {
	for _, variant := range []core.Variant{core.SCC, core.MCC} {
		for _, bs := range []uint32{8, 256} {
			t.Run(fmt.Sprintf("%v/bs%d", variant, bs), func(t *testing.T) {
				const blocks = 6
				m := tempest.New(2, bs, cost.Default())
				merges := 0
				probe := core.Func{Elem: 8, F: func(pending, incoming, clean []byte, _ bool) bool {
					merges++
					aligned(t, "pending image", pending)
					aligned(t, "effect-ring snapshot", incoming)
					aligned(t, "clean image", clean)
					copy(pending, incoming)
					return false
				}}
				r := m.AS.Alloc("data", blocks*uint64(bs), memsys.KindCoherent, memsys.Interleaved)
				if err := core.Reduction(probe).ApplyTo(r); err != nil {
					t.Fatal(err)
				}
				m.SetProtocol(core.New(variant))
				m.Freeze()
				if on, why := m.RunAhead(); !on {
					t.Fatalf("machine does not run ahead (%s): flushes would bypass the effect ring", why)
				}
				m.Run(func(n *tempest.Node) {
					// Both nodes write the last element of every block, so
					// every home merges a local and a remote flush.
					for b := uint64(0); b < blocks; b++ {
						tempest.Write(n, r.Base+memsys.Addr((b+1)*uint64(bs)-8), uint64(n.ID+1))
					}
					n.ReconcileCopies()
				})
				if merges != 2*blocks {
					t.Fatalf("reconciler saw %d merges, want %d", merges, 2*blocks)
				}
				clean := 0
				for b := r.FirstBlock(); b < r.FirstBlock()+memsys.BlockID(r.NumBlocks()); b++ {
					aligned(t, "home image", m.AS.HomeData(b))
					for _, n := range m.Nodes {
						l := n.Line(b)
						if l == nil {
							t.Fatalf("node %d never installed block %d", n.ID, b)
						}
						aligned(t, "line data", l.Data)
						if l.Clean != nil {
							clean++
							aligned(t, "mcc clean copy", l.Clean)
						}
					}
				}
				if wantClean := variant == core.MCC; (clean > 0) != wantClean {
					t.Errorf("found %d local clean copies under %v", clean, variant)
				}
			})
		}
	}
}
