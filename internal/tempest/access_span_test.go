package tempest

import (
	"bytes"
	"sync"
	"testing"

	"lcm/internal/cost"
	"lcm/internal/memsys"
)

// fillHome writes a deterministic byte pattern into every home block of r,
// so two machines can start from identical images.
func fillHome(m *Machine, r *memsys.Region) {
	b0 := m.AS.Block(r.Base)
	b1 := m.AS.Block(r.Base + memsys.Addr(r.Size) - 1)
	for b := b0; b <= b1; b++ {
		d := m.AS.HomeData(b)
		for i := range d {
			d[i] = byte((int(b)*31 + i*7) % 251)
		}
	}
}

// spanPattern exercises every span accessor with segment boundaries that
// land mid-block, mid-span and exactly on block edges, plus interleaved
// scalar accesses.  Run on a span machine and a ScalarAccess machine, the
// virtual-time observables must match bit-for-bit.
func spanPattern(n *Node, base memsys.Addr) {
	f32 := make([]float32, 13)
	n.ReadSpanF32(base+4, f32) // starts mid-block, spans two blocks
	for i := range f32 {
		f32[i] += 0.5
	}
	n.WriteSpanF32(base+4, f32)

	u32 := make([]uint32, 16) // exactly two blocks, block-aligned
	n.ReadSpanU32(base+64, u32)
	n.WriteSpanU32(base+64, u32)

	i32 := make([]int32, 3) // single partial block
	n.ReadSpanI32(base+140, i32)
	n.WriteSpanI32(base+140, i32)

	u64 := make([]uint64, 5)
	n.ReadSpanU64(base+8, u64)
	n.WriteSpanU64(base+8, u64)

	i64 := make([]int64, 7) // mid-block start, crosses a boundary
	n.ReadSpanI64(base+48, i64)
	for i := range i64 {
		i64[i] -= 3
	}
	n.WriteSpanI64(base+48, i64)

	f64 := make([]float64, 4)
	n.ReadSpanF64(base+192, f64)
	n.WriteSpanF64(base+192, f64)

	// Copy with different source and destination block phases, so the
	// dual-boundary segmentation is exercised.
	n.CopySpan(base+268, base+64, 17, 4)
	n.CopySpan(base+392, base+8, 6, 8)

	n.FillSpanF32(base+452, 11, 3.25)

	// Scalar accesses interleaved with spans share the same MRU/tag path.
	_ = n.ReadF32(base + 4)
	n.WriteF32(base+500, n.ReadF32(base+456))
}

// TestSpanScalarEquivalence runs the same access pattern through the span
// engine and through the per-element fallback on two identical machines
// and asserts that the clock, hit/miss counters, fault counts and the
// final home image are bit-identical.
func TestSpanScalarEquivalence(t *testing.T) {
	type run struct {
		clock        int64
		hits, misses int64
		reads, wris  int
		image        []byte
	}
	exec := func(scalar bool) run {
		m, r := newTestMachine(t, 1, 256)
		m.ScalarAccess = scalar
		fillHome(m, r)
		m.Run(func(n *Node) { spanPattern(n, r.Base) })
		fp := m.protocol.(*fakeProtocol)
		var img []byte
		b0 := m.AS.Block(r.Base)
		b1 := m.AS.Block(r.Base + memsys.Addr(r.Size) - 1)
		for b := b0; b <= b1; b++ {
			img = append(img, m.AS.HomeData(b)...)
		}
		nd := m.Nodes[0]
		return run{nd.Clock(), nd.Ctr.Hits, nd.Ctr.Misses, fp.readFaults, fp.writeFault, img}
	}
	span, scal := exec(false), exec(true)
	if span.clock != scal.clock {
		t.Errorf("clock: span %d, scalar %d", span.clock, scal.clock)
	}
	if span.hits != scal.hits || span.misses != scal.misses {
		t.Errorf("hits/misses: span %d/%d, scalar %d/%d",
			span.hits, span.misses, scal.hits, scal.misses)
	}
	if span.reads != scal.reads || span.wris != scal.wris {
		t.Errorf("faults: span %d/%d, scalar %d/%d",
			span.reads, span.wris, scal.reads, scal.wris)
	}
	if !bytes.Equal(span.image, scal.image) {
		t.Errorf("final home image differs between span and scalar execution")
	}
}

// TestSpanRoundTrip checks values survive a span write / span read cycle
// across block boundaries, and that a span store really reaches the home
// image (the write-through contract).
func TestSpanRoundTrip(t *testing.T) {
	m, r := newTestMachine(t, 1, 64)
	m.Run(func(n *Node) {
		want := make([]float32, 15)
		for i := range want {
			want[i] = float32(i)*1.5 - 3
		}
		n.WriteSpanF32(r.Base+8, want)
		got := make([]float32, len(want))
		n.ReadSpanF32(r.Base+8, got)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("f32[%d] = %v, want %v", i, got[i], want[i])
			}
			if v := n.ReadF32(r.Base + 8 + memsys.Addr(4*i)); v != want[i] {
				t.Errorf("scalar readback [%d] = %v, want %v", i, v, want[i])
			}
		}
		n.CopySpan(r.Base+128, r.Base+8, len(want), 4)
		for i := range want {
			if v := n.ReadF32(r.Base + 128 + memsys.Addr(4*i)); v != want[i] {
				t.Errorf("copy dst [%d] = %v, want %v", i, v, want[i])
			}
		}
		wantI := make([]int64, 9) // 72 bytes ending at the region edge
		for i := range wantI {
			wantI[i] = int64(i)*-7 + 3
		}
		n.WriteSpanI64(r.Base+184, wantI)
		gotI := make([]int64, len(wantI))
		n.ReadSpanI64(r.Base+184, gotI)
		for i := range wantI {
			if gotI[i] != wantI[i] {
				t.Errorf("i64[%d] = %v, want %v", i, gotI[i], wantI[i])
			}
		}
	})
	// The store path must have written through to the home image.
	b := m.AS.Block(r.Base + 8)
	if len(m.AS.HomeData(b)) == 0 {
		t.Fatalf("no home data")
	}
}

// TestSpanChargesPerElement checks the amortized span paths charge exactly
// one cache hit per element, not one per segment.
func TestSpanChargesPerElement(t *testing.T) {
	m, r := newTestMachine(t, 1, 64)
	m.Run(func(n *Node) {
		dst := make([]float32, 12)
		c0, h0 := n.Clock(), n.Ctr.Hits
		n.ReadSpanF32(r.Base+4, dst) // 12 loads over two blocks
		if d := n.Clock() - c0; d != 12*m.Cost.CacheHit {
			t.Errorf("span read charged %d cycles, want %d", d, 12*m.Cost.CacheHit)
		}
		if d := n.Ctr.Hits - h0; d != 12 {
			t.Errorf("span read counted %d hits, want 12", d)
		}
		c0, h0 = n.Clock(), n.Ctr.Hits
		n.WriteSpanF32(r.Base+4, dst)
		if d := n.Clock() - c0; d != 12*m.Cost.CacheHit {
			t.Errorf("span write charged %d cycles, want %d", d, 12*m.Cost.CacheHit)
		}
		if d := n.Ctr.Hits - h0; d != 12 {
			t.Errorf("span write counted %d hits, want 12", d)
		}
	})
}

// privProtocol installs write-faulting blocks as private copies, the way
// LCM does, so the WMask recording path is exercised.
type privProtocol struct {
	fakeProtocol
}

func (f *privProtocol) WriteFault(n *Node, b memsys.BlockID) *Line {
	f.m.Lock(b)
	n.Ctr.Misses++
	return n.Install(b, f.m.AS.HomeData(b), TagPrivate)
}

// TestSpanWMaskRecording: span stores into a conflict-checked private copy
// must set exactly the same per-word WMask bits as the scalar loop.
func TestSpanWMaskRecording(t *testing.T) {
	mask := func(scalar bool) (got uint64) {
		m := New(1, 32, cost.Uniform(1))
		r := m.AS.Alloc("data", 64*4, memsys.KindLCM, memsys.Interleaved)
		r.ConflictCheck = true
		m.SetProtocol(&privProtocol{})
		m.Freeze()
		m.ScalarAccess = scalar
		m.Run(func(n *Node) {
			vals := []float32{1, 2, 3, 4, 5}
			n.WriteSpanF32(r.Base+4, vals) // words 1..5 of block 0
			got = n.Line(m.AS.Block(r.Base)).WMask
		})
		return got
	}
	span, scal := mask(false), mask(true)
	if span != scal {
		t.Errorf("WMask: span %#b, scalar %#b", span, scal)
	}
	if want := uint64(0b111110); span != want {
		t.Errorf("WMask = %#b, want %#b", span, want)
	}
}

// TestMRURevocation: the MRU cache must never satisfy an access after the
// line's tag has been revoked (as a remote protocol handler would).
func TestMRURevocation(t *testing.T) {
	m, r := newTestMachine(t, 1, 64)
	m.Run(func(n *Node) {
		fp := m.protocol.(*fakeProtocol)
		_ = n.ReadF32(r.Base) // faults, installs, seeds the MRU
		if fp.readFaults != 1 {
			t.Fatalf("readFaults = %d, want 1", fp.readFaults)
		}
		_ = n.ReadF32(r.Base + 4) // MRU hit, no new fault
		if fp.readFaults != 1 {
			t.Fatalf("readFaults after MRU hit = %d, want 1", fp.readFaults)
		}
		// Revoke the tag the way a remote handler does, then access again:
		// the MRU pointer is stale but the atomic tag check must trap.
		n.Line(m.AS.Block(r.Base)).SetTag(TagInvalid)
		_ = n.ReadF32(r.Base)
		if fp.readFaults != 2 {
			t.Errorf("readFaults after revocation = %d, want 2", fp.readFaults)
		}
	})
}

// TestMakeRoomFIFOBounded: the residency queue must not leak its backing
// array.  Before the head-index ring, `fifo = fifo[1:]` kept every popped
// entry reachable and the array grew with the total number of installs.
func TestMakeRoomFIFOBounded(t *testing.T) {
	m, r := newTestMachine(t, 1, 512) // 64 blocks of 8 words
	m.CacheLines = 4
	var maxCap int
	m.Run(func(n *Node) {
		for pass := 0; pass < 200; pass++ {
			for blk := 0; blk < 64; blk++ {
				_ = n.ReadF32(r.Base + memsys.Addr(blk*32))
			}
			if c := cap(n.fifo); c > maxCap {
				maxCap = c
			}
		}
		if n.Ctr.Evictions == 0 {
			t.Errorf("no evictions despite CacheLines=%d", m.CacheLines)
		}
	})
	// 200 passes × 64 blocks ≈ 12800 installs; the ring must stay within a
	// small multiple of the compaction threshold, not grow with installs.
	if maxCap > 4*fifoCompactMin {
		t.Errorf("fifo backing array grew to cap %d (want ≤ %d)", maxCap, 4*fifoCompactMin)
	}
}

// TestSpanEquivalenceUnderEviction repeats the equivalence check with a
// tight cache so the span fault path interacts with makeRoom/eviction.
func TestSpanEquivalenceUnderEviction(t *testing.T) {
	exec := func(scalar bool) (int64, int64, int64, int64) {
		m, r := newTestMachine(t, 1, 256)
		m.CacheLines = 3
		m.ScalarAccess = scalar
		fillHome(m, r)
		m.Run(func(n *Node) {
			for pass := 0; pass < 4; pass++ {
				spanPattern(n, r.Base)
			}
		})
		nd := m.Nodes[0]
		return nd.Clock(), nd.Ctr.Hits, nd.Ctr.Misses, nd.Ctr.Evictions
	}
	c1, h1, m1, e1 := exec(false)
	c2, h2, m2, e2 := exec(true)
	if c1 != c2 || h1 != h2 || m1 != m2 || e1 != e2 {
		t.Errorf("span (clock %d hits %d misses %d evict %d) != scalar (%d %d %d %d)",
			c1, h1, m1, e1, c2, h2, m2, e2)
	}
}

// TestSpanUnalignedPanics: spans must start element-aligned.
func TestSpanUnalignedPanics(t *testing.T) {
	m, r := newTestMachine(t, 1, 64)
	m.Run(func(n *Node) {
		defer func() {
			if recover() == nil {
				t.Errorf("unaligned span did not panic")
			}
		}()
		dst := make([]float64, 2)
		n.ReadSpanF64(r.Base+4, dst) // 8-byte elements at offset 4
	})
}

// TestSpanConcurrentNodes runs span sweeps from all nodes at once over
// disjoint ranges (race detector food) and checks per-node accounting.
func TestSpanConcurrentNodes(t *testing.T) {
	const p = 4
	m, r := newTestMachine(t, p, 64*p)
	fillHome(m, r)
	var mu sync.Mutex
	hits := map[int]int64{}
	m.Run(func(n *Node) {
		base := r.Base + memsys.Addr(n.ID*256)
		buf := make([]float32, 32)
		n.ReadSpanF32(base, buf)
		n.WriteSpanF32(base, buf)
		n.Barrier()
		mu.Lock()
		hits[n.ID] = n.Ctr.Hits
		mu.Unlock()
	})
	for id := 0; id < p; id++ {
		if hits[id] != 64 {
			t.Errorf("node %d hits = %d, want 64", id, hits[id])
		}
	}
}
