package tempest

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"lcm/internal/cost"
	"lcm/internal/memsys"
	"lcm/internal/sched"
	"lcm/internal/stats"
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

// spanSegs are the segments every row of the differential table transfers,
// as (byte offset, element count): starting and ending mid-block, whole
// blocks edge to edge, inside one block, and crossing one boundary.
var spanSegs = []struct {
	off memsys.Addr
	k   int
}{{8, 13}, {64, 16}, {136, 3}, {48, 7}}

// spanRow is one element type of the table: it reads, bumps and writes back
// every segment through that type's span accessors and returns the bytes it
// read.
type spanRow struct {
	name string
	run  func(n *Node, base memsys.Addr) []byte
}

func newSpanRow[T memsys.Word](name string, read, write func(*Node, memsys.Addr, []T), step T) spanRow {
	return spanRow{name, func(n *Node, base memsys.Addr) (seen []byte) {
		for _, seg := range spanSegs {
			buf := make([]T, seg.k)
			read(n, base+seg.off, buf)
			seen = append(seen, memsys.Bytes(buf)...)
			for i := range buf {
				buf[i] += step
			}
			write(n, base+seg.off, buf)
		}
		return seen
	}}
}

// spanRows covers every Word type: float32 through the Node methods (the one
// element type with callers of its own), the rest through the generic
// transfers the aggregates use.
var spanRows = []spanRow{
	newSpanRow("f32", (*Node).ReadSpanF32, (*Node).WriteSpanF32, 0.5),
	newSpanRow("f64", ReadSpan[float64], WriteSpan[float64], -0.25),
	newSpanRow("i32", ReadSpan[int32], WriteSpan[int32], 7),
	newSpanRow("i64", ReadSpan[int64], WriteSpan[int64], -3),
	newSpanRow("u32", ReadSpan[uint32], WriteSpan[uint32], 1),
	newSpanRow("u64", ReadSpan[uint64], WriteSpan[uint64], 1<<40),
}

// spanPattern runs every row, then the copy and scalar accesses that
// share the rows' tag path, and returns everything it read.
func spanPattern(n *Node, base memsys.Addr) (seen []byte) {
	for _, row := range spanRows {
		seen = append(seen, row.run(n, base)...)
	}
	// Copy with different source and destination block phases, so the
	// dual-boundary segmentation is exercised.
	CopySpan[uint32](n, base+268, base+64, 17)
	CopySpan[float64](n, base+392, base+8, 6)

	v := n.ReadF32(base+4) + n.ReadF32(base+456)
	n.WriteF32(base+500, v)
	return append(seen, memsys.Bytes([]float32{v})...)
}

// spanRun is what one execution of spanPattern leaves behind: everything a
// span machine and a ScalarAccess machine must agree on.
type spanRun struct {
	seen, image []byte
	clock       int64
	ctr         stats.NodeCounters
	faults      []fakeFault
	stored      []uint32 // the model checker's store footprint, repeats collapsed
}

func runSpanPattern(t *testing.T, scalar bool, cacheLines, passes int) spanRun {
	m, r := newTestMachine(t, 1, 256)
	m.ScalarAccess, m.CacheLines = scalar, cacheLines
	var s *sched.Scheduler
	m.SchedHook = func(sc *sched.Scheduler) { sc.EnableRecording(); s = sc }
	fillHome(m, r)
	var out spanRun
	m.Run(func(n *Node) {
		for i := 0; i < passes; i++ {
			out.seen = append(out.seen, spanPattern(n, r.Base)...)
		}
	})
	out.image = m.AS.HomeBytes(r.Base, int(r.Size))
	out.clock, out.ctr = m.Nodes[0].Clock(), m.Nodes[0].Ctr
	out.faults = m.protocol.(*fakeProtocol).order
	for _, seg := range s.Segments() {
		for _, b := range seg.Blocks {
			if len(out.stored) == 0 || out.stored[len(out.stored)-1] != b {
				out.stored = append(out.stored, b)
			}
		}
	}
	if len(out.stored) == 0 {
		t.Fatalf("no store footprint recorded")
	}
	return out
}

func (got spanRun) diff(t *testing.T, want spanRun) {
	t.Helper()
	if !bytes.Equal(got.seen, want.seen) {
		t.Errorf("answers differ between span and scalar execution")
	}
	if !bytes.Equal(got.image, want.image) {
		t.Errorf("final home image differs between span and scalar execution")
	}
	if got.clock != want.clock {
		t.Errorf("clock: span %d, scalar %d", got.clock, want.clock)
	}
	if got.ctr != want.ctr {
		t.Errorf("counters: span %+v, scalar %+v", got.ctr, want.ctr)
	}
	if !slices.Equal(got.faults, want.faults) {
		t.Errorf("per-block fault order:\n span   %v\n scalar %v", got.faults, want.faults)
	}
	if !slices.Equal(got.stored, want.stored) {
		t.Errorf("store footprint:\n span   %v\n scalar %v", got.stored, want.stored)
	}
}

// postProtocol is fakeProtocol split the way LCM is: a fault on a loosely
// coherent block posts an effect — the machine runs ahead, having no plan,
// trace or hook — and installs a read-only or private copy of its own; a
// coherent block faults as in fakeProtocol, onto a home line.
type postProtocol struct {
	fakeProtocol
}

func (f *postProtocol) KeepsCopies(r *memsys.Region) bool { return r.Kind != memsys.KindCoherent }

func (f *postProtocol) ReadFault(n *Node, b memsys.BlockID) {
	f.fault(n, b, false, TagReadOnly)
}

func (f *postProtocol) WriteFault(n *Node, b memsys.BlockID) {
	f.fault(n, b, true, TagPrivate)
}

func (f *postProtocol) fault(n *Node, b memsys.BlockID, write bool, loose Tag) {
	switch {
	case f.m.AS.RegionOfBlock(b).Kind != memsys.KindCoherent:
		f.order = append(f.order, fakeFault{b, write})
		n.Ctr.Misses++
		n.Emit(n.EnterHandler(b))
		n.Install(b, f.m.AS.HomeData(b), loose)
	case write:
		f.fakeProtocol.WriteFault(n, b)
	default:
		f.fakeProtocol.ReadFault(n, b)
	}
}

// runLongSpans runs spans of 80 blocks — long enough that the run path covers
// 64 and more in one copy — on one node of a machine holding a coherent and a
// loosely coherent region under postProtocol: cold and warm, meeting a revoked
// block mid-run, ending mid-block, copying between home lines and into
// private ones, and issued while posts are outstanding, which must take the
// per-block path and so drain.
func runLongSpans(t *testing.T, scalar bool) spanRun {
	const blocks = 80
	const span = blocks * 8 // float32s in 80 32-byte blocks
	m := New(1, 32, cost.Uniform(1))
	coh := m.AS.Alloc("coh", 2*blocks*32+64, memsys.KindCoherent, memsys.Interleaved)
	loose := m.AS.Alloc("loose", blocks*32+64, memsys.KindLCM, memsys.Interleaved)
	p := &postProtocol{}
	m.SetProtocol(p)
	m.Freeze()
	m.ScalarAccess = scalar
	fillHome(m, coh)
	fillHome(m, loose)
	var out spanRun
	m.Run(func(n *Node) {
		row := make([]float32, span)
		read := func(a memsys.Addr, dst []float32) {
			ReadSpan(n, a, dst)
			out.seen = append(out.seen, memsys.Bytes(dst)...)
		}
		read(coh.Base, row) // cold: every block faults, in order
		for i := range row {
			row[i] += 1
		}
		WriteSpan(n, coh.Base, row) // warm: one run
		n.SetTag(m.AS.Block(coh.Base+40*32), TagInvalid)
		read(coh.Base+4, row[:span-3])          // meets the revoked block; ends mid-block
		WriteSpan(n, coh.Base+12, row[:span-5]) // a store run ending mid-block
		for pass := 0; pass < 2; pass++ {       // both sides home lines: cold, then one run
			CopySpan[float32](n, coh.Base+blocks*32+8, coh.Base+4, span-4)
		}
		n.WriteF32(loose.Base, 7) // a private copy: its handler posts
		if n.fxLen == 0 {
			t.Errorf("a loosely coherent store fault left nothing posted")
		}
		read(coh.Base, row)
		if n.fxLen != 0 {
			t.Errorf("a span over home lines with %d posts outstanding did not drain", n.fxLen)
		}
		CopySpan[float32](n, loose.Base+16, coh.Base+4, span-4) // into private copies
		read(loose.Base+16, row[:span-4])
	})
	out.image = m.AS.HomeBytes(coh.Base, int(loose.End()-coh.Base)) // both regions
	out.clock, out.ctr = m.Nodes[0].Clock(), m.Nodes[0].Ctr
	out.faults = p.order
	return out
}

// TestSpanScalarEquivalence runs the table, and the long spans the run path
// moves in one copy, through the span engine and through the per-element
// fallback on two identical machines and asserts that the answers, the
// clock, every counter, the order in which blocks faulted, the final home
// image and (for the table, which posts nothing) the store footprint the
// model checker records are identical.
func TestSpanScalarEquivalence(t *testing.T) {
	span := runSpanPattern(t, false, 0, 1)
	span.diff(t, runSpanPattern(t, true, 0, 1))
	if len(span.faults) == 0 || span.ctr.Hits == 0 {
		t.Errorf("pattern faulted %d times and hit %d: nothing was compared", len(span.faults), span.ctr.Hits)
	}
	long := runLongSpans(t, false)
	long.diff(t, runLongSpans(t, true))
	if len(long.faults) < 3*80 {
		t.Errorf("long spans faulted %d times: the cold spans did not fault block by block", len(long.faults))
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
		CopySpan[float32](n, r.Base+128, r.Base+8, len(want))
		for i := range want {
			if v := n.ReadF32(r.Base + 128 + memsys.Addr(4*i)); v != want[i] {
				t.Errorf("copy dst [%d] = %v, want %v", i, v, want[i])
			}
		}
		wantI := make([]int64, 9) // 72 bytes ending at the region edge
		for i := range wantI {
			wantI[i] = int64(i)*-7 + 3
		}
		WriteSpan(n, r.Base+184, wantI)
		gotI := make([]int64, len(wantI))
		ReadSpan(n, r.Base+184, gotI)
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
// LCM does, so the WMask recording path is exercised.  Like LCM it keeps
// copies: only a CopyKeeper's lines outside coherent regions have buffers of
// their own to be private in.
type privProtocol struct {
	fakeProtocol
}

func (f *privProtocol) KeepsCopies(r *memsys.Region) bool { return r.Kind != memsys.KindCoherent }

func (f *privProtocol) WriteFault(n *Node, b memsys.BlockID) {
	f.m.Lock(b)
	n.Ctr.Misses++
	n.Install(b, f.m.AS.HomeData(b), TagPrivate)
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
			got = n.Copy(m.AS.Block(r.Base)).WMask
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

// TestRevocationTraps: a line that satisfied the last access must not satisfy
// the next once its tag has been revoked (as a remote protocol handler would).
func TestRevocationTraps(t *testing.T) {
	m, r := newTestMachine(t, 1, 64)
	m.Run(func(n *Node) {
		fp := m.protocol.(*fakeProtocol)
		_ = n.ReadF32(r.Base) // faults, installs
		if fp.readFaults != 1 {
			t.Fatalf("readFaults = %d, want 1", fp.readFaults)
		}
		_ = n.ReadF32(r.Base + 4) // same block: a hit, no new fault
		if fp.readFaults != 1 {
			t.Fatalf("readFaults after a hit = %d, want 1", fp.readFaults)
		}
		// Revoke the tag the way a remote handler does, then access again:
		// the line is still installed, but the tag check must trap.
		n.SetTag(m.AS.Block(r.Base), TagInvalid)
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
	span := runSpanPattern(t, false, 3, 4)
	span.diff(t, runSpanPattern(t, true, 3, 4))
	if span.ctr.Evictions == 0 {
		t.Errorf("no evictions with CacheLines=3")
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
		ReadSpan(n, r.Base+4, dst) // 8-byte elements at offset 4
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
