package tempest_test

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"testing"

	"lcm/internal/core"
	"lcm/internal/cost"
	"lcm/internal/memsys"
	"lcm/internal/sched"
	"lcm/internal/stache"
	"lcm/internal/stats"
	"lcm/internal/tempest"
)

// svBlocks is the size, in 32-byte blocks, of each region of a span-view
// machine.
const svBlocks = 16

// svRun is what one execution of a span-view program leaves behind:
// everything the in-place run and its copying twin must agree on.
type svRun struct {
	err    string
	seen   []byte // each read span's elements, taken at the end of the phase
	clocks [2]int64
	ctr    [2]stats.NodeCounters
	tags   [2][]tempest.Tag
	segs   []sched.Segment // the lock footprint, recorded on the spot only
	image  []byte

	// Of the in-place run: spans issued with posts outstanding, and views
	// handed out.
	posted, views int
}

// runSpanView decodes in into a two-node program and runs it, its spans
// through ReadView and StoreView (falling back to WriteSpan) when inPlace is
// set and through ReadSpan and WriteSpan when not.  in spells:
//
//	in[0]   bit 0: an LCM machine (else Stache); bit 1: the machine runs
//	        ahead (else on the spot, recording the lock footprint); bit 2:
//	        node 0 issues each span right after a read fault that posts;
//	        bit 3: the region the spans read is declared read-only for the
//	        phase; bit 4: 8-byte elements (else 4); bit 5: node 0 declares
//	        the first half of the region the spans store to its own; bit 6:
//	        the spans read region x and store to coh (else the other way)
//	in[1]   the number of setup ops (mod 32) that come next
//	setup   one byte an op, run before a barrier by node 1 if bit 7 is set
//	        (else node 0): bit 6 a store (else a load), bit 5 region x (else
//	        coh), bits 0-3 the block
//	spans   three bytes a span, run by node 0 after the barrier: bit 7 of
//	        the first a store (else a read), bit 6 a read of the region the
//	        spans store to, its bits 0-3 the first block; the element offset
//	        in it; the element count, cut to what fits in the region
//
// Region coh is coherent; x is loosely coherent on the LCM machine and
// coherent on Stache; the posting reads read p, loosely coherent on the LCM
// machine and coherent and declared read-only on Stache.
func runSpanView(in []byte, inPlace bool) svRun {
	if len(in) > 0 && in[0]&16 != 0 {
		return runSpanViewOf[uint64](in, inPlace)
	}
	return runSpanViewOf[uint32](in, inPlace)
}

func runSpanViewOf[T uint32 | uint64](in []byte, inPlace bool) svRun {
	var flags byte
	if len(in) > 0 {
		flags, in = in[0], in[1:]
	}
	lcm, ahead, posts := flags&1 != 0, flags&2 != 0, flags&4 != 0
	readOnly, owned, readX := flags&8 != 0, flags&32 != 0, flags&64 != 0
	var setup []byte
	if len(in) > 0 {
		nset := min(int(in[0]%32), len(in)-1)
		setup, in = in[1:1+nset], in[1+nset:]
	}

	m := tempest.New(2, 32, cost.Default())
	loose := memsys.KindCoherent
	var proto tempest.Protocol = stache.New()
	if lcm {
		loose, proto = memsys.KindLCM, core.New(core.SCC)
	}
	coh := m.AS.Alloc("coh", svBlocks*32, memsys.KindCoherent, memsys.Interleaved)
	x := m.AS.Alloc("x", svBlocks*32, loose, memsys.Interleaved)
	p := m.AS.Alloc("p", svBlocks*32, loose, memsys.Interleaved)
	m.SetProtocol(proto)
	m.Freeze()
	var s *sched.Scheduler
	if !ahead {
		m.SchedHook = func(sc *sched.Scheduler) { sc.EnableRecording(); s = sc }
	}
	for i, r := range []*memsys.Region{coh, x, p} {
		img := m.AS.HomeBytes(r.Base, int(r.Size))
		for j := range img {
			img[j] = byte(i*71 + j*13)
		}
	}
	read, store := coh, x
	if readX {
		read, store = x, coh
	}

	elem := int(memsys.SizeOf[T]())
	var out svRun
	var reads [][]T
	err := m.RunErr(func(n *tempest.Node) {
		for i, op := range setup {
			if int(op>>7) != n.ID {
				continue
			}
			r := coh
			if op&32 != 0 {
				r = x
			}
			a := r.Base + memsys.Addr(op&15)*32
			if op&64 != 0 {
				tempest.Write(n, a, uint32(i+1))
			} else {
				_ = tempest.Read[uint32](n, a)
			}
		}
		n.ReconcileCopies()
		if n.ID == 0 {
			if readOnly {
				n.DeclareReadOnly(read)
			}
			if posts {
				n.DeclareReadOnly(p)
			}
			if owned {
				n.DeclareOwned(store, store.Base, store.Base+memsys.Addr(store.Size/2))
			}
			for j := 0; j+3 <= len(in) && j < 3*svBlocks; j += 3 {
				if posts {
					_ = tempest.Read[uint32](n, p.Base+memsys.Addr(j/3*32))
				}
				if n.Posts() != 0 {
					out.posted++
				}
				first, off := int(in[j]&15), int(in[j+1])%(32/elem)
				room := (svBlocks-first)*32/elem - off
				k := int(in[j+2]) % (room + 1)
				if in[j]&128 != 0 {
					a := store.Base + memsys.Addr(first*32+off*elem)
					var v []T
					if inPlace {
						v = tempest.StoreView[T](n, a, k)
					}
					direct := v != nil
					if direct {
						out.views++
					} else {
						v = make([]T, k)
					}
					for i := range v {
						v[i] = T(j<<8 + i + 1)
					}
					if !direct {
						tempest.WriteSpan(n, a, v)
					}
					continue
				}
				r := read
				if in[j]&64 != 0 {
					r = store
				}
				a := r.Base + memsys.Addr(first*32+off*elem)
				buf := make([]T, k)
				got := buf
				if inPlace {
					got = tempest.ReadView(n, a, buf)
					if k != 0 && &got[0] != &buf[0] {
						out.views++
					}
				} else {
					tempest.ReadSpan(n, a, buf)
				}
				reads = append(reads, got)
			}
			for _, r := range reads {
				out.seen = append(out.seen, memsys.Bytes(r)...)
			}
		}
		n.ReconcileCopies()
	})
	if err != nil {
		out.err = err.Error()
	}
	for id, n := range m.Nodes {
		out.clocks[id], out.ctr[id] = n.Clock(), n.Ctr
		for b := memsys.BlockID(0); b < memsys.BlockID(m.AS.NumBlocks()); b++ {
			out.tags[id] = append(out.tags[id], n.Tag(b))
		}
	}
	if s != nil {
		out.segs = s.Segments()
	}
	out.image = bytes.Clone(m.AS.HomeBytes(coh.Base, int(p.End()-coh.Base)))
	return out
}

func (got svRun) diff(t *testing.T, want svRun, in []byte) {
	t.Helper()
	if got.err != want.err {
		t.Errorf("in place the run failed with %q, copying with %q", got.err, want.err)
	}
	if !bytes.Equal(got.seen, want.seen) {
		t.Errorf("the reads returned different data")
	}
	if got.clocks != want.clocks {
		t.Errorf("clocks: in place %v, copying %v", got.clocks, want.clocks)
	}
	if got.ctr != want.ctr {
		t.Errorf("counters:\n in place %+v\n copying  %+v", got.ctr, want.ctr)
	}
	if !reflect.DeepEqual(got.tags, want.tags) {
		t.Errorf("tags:\n in place %v\n copying  %v", got.tags, want.tags)
	}
	if !reflect.DeepEqual(got.segs, want.segs) {
		t.Errorf("lock footprint:\n in place %+v\n copying  %+v", got.segs, want.segs)
	}
	if !bytes.Equal(got.image, want.image) {
		t.Errorf("the home images differ")
	}
	if t.Failed() {
		t.Logf("input %x", in)
	}
}

// spanViewSeeds are FuzzSpanView's hand-written inputs.
var spanViewSeeds = [][]byte{
	// Stache on the spot, coh read-only, x held writable by node 0: a read
	// that faults mid-span, a store view over eight held blocks, and a
	// store over blocks 6-8, the last of which node 0 does not hold.
	{0x08, 10, 0x00, 0x01, 0x60, 0x61, 0x62, 0x63, 0x64, 0x65, 0x66, 0x67,
		0x00, 1, 40, 0x80, 0, 64, 0x86, 0, 24},
	// The same after node 1 has read one of the blocks node 0 holds
	// writable, late enough to find it exclusive there: the store over
	// blocks 0-3 has one block node 0 holds read-only.
	{0x08, 10, 0x60, 0x61, 0x62, 0x63, 0x88, 0x89, 0x8a, 0x8b, 0x8c, 0xa2,
		0x80, 0, 32, 0x80, 3, 9, 0x00, 0, 80},
	// Stache running ahead, each span after a posted read of p, coh
	// read-only, 8-byte elements, x's first half owned by node 0.
	{0x3e, 6, 0x60, 0x61, 0x62, 0x63, 0x6c, 0x6d,
		0x00, 0, 30, 0x80, 0, 16, 0x81, 1, 20, 0x8c, 0, 8, 0x02, 3, 40},
	// LCM running ahead, posts outstanding, coh read-only; the stores go to
	// loose x, which has no home lines to store into in place.
	{0x0f, 4, 0x00, 0x01, 0x60, 0x20,
		0x00, 0, 60, 0x80, 0, 16, 0x01, 2, 33},
	// LCM running ahead, posts outstanding: the reads are of loose x, the
	// stores to coh, whose first half node 0 owns and holds writable.
	{0x67, 8, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47,
		0x80, 0, 32, 0x86, 0, 24, 0x00, 0, 20, 0x80, 1, 7},
	// Stache on the spot, nothing declared, 8-byte elements: every read
	// falls back to a copy.
	{0x10, 3, 0x00, 0x61, 0x81, 0x00, 0, 12, 0x81, 0, 8, 0x01, 1, 9},
	// LCM on the spot, coh read-only, x loose.
	{0x09, 3, 0x00, 0x60, 0x82, 0x00, 0, 50, 0x80, 0, 10},
	// Reads of the region the spans store to, which is not read-only, each
	// before a store over it: on Stache, and on the LCM machine, whose store
	// region is loose.
	{0x08, 2, 0x60, 0x61, 0x40, 0, 16, 0x80, 0, 16, 0x41, 2, 5, 0x81, 0, 8},
	{0x0b, 2, 0x60, 0x61, 0x40, 0, 16, 0x80, 0, 16, 0x41, 2, 5, 0x81, 0, 8},
}

// FuzzSpanView holds the in-place span paths, ReadView and StoreView, to
// ReadSpan and WriteSpan: a program of spans over generated tag rows, on a
// Stache machine or an LCM one with a loose and a coherent region, running
// ahead with posts outstanding or on the spot, over a region declared
// read-only or not, with 4- or 8-byte elements, runs both ways on twin
// machines, which must agree on what the reads return, clocks, counters,
// tags, the home image and, on the spot, the lock footprint.  Besides the
// hand-written seeds, go test runs a few hundred inputs drawn from a fixed
// stream.
func FuzzSpanView(f *testing.F) {
	for _, in := range spanViewSeeds {
		f.Add(in)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for range 300 {
		in := make([]byte, 2+rng.IntN(24)+3*rng.IntN(8))
		for i := range in {
			in[i] = byte(rng.Uint32())
		}
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		runSpanView(in, true).diff(t, runSpanView(in, false), in)
	})
}

// TestSpanViewSeedsReachTheirCases checks that FuzzSpanView's hand-written
// seeds hand out read and store views, some of them with posts outstanding,
// so that the differential compares what it is for.
func TestSpanViewSeedsReachTheirCases(t *testing.T) {
	var views, posted int
	for _, in := range spanViewSeeds {
		r := runSpanView(in, true)
		if r.err != "" {
			t.Errorf("seed %x failed: %s", in, r.err)
		}
		views += r.views
		if r.views != 0 {
			posted += r.posted
		}
	}
	if views < 8 || posted < 4 {
		t.Errorf("the seeds handed out %d views, %d spans of them with posts outstanding", views, posted)
	}
}

// TestReadViewOfWritableRegionIsACopy: a read of a region that is not
// declared read-only must return what ReadSpan copies at the read, even when
// another node stores to the span before the reader uses it, at a scheduling
// point in between.
func TestReadViewOfWritableRegionIsACopy(t *testing.T) {
	m := tempest.New(2, 32, cost.Default())
	r := m.AS.Alloc("data", 4*32, memsys.KindCoherent, memsys.Interleaved)
	m.SetProtocol(stache.New())
	m.Freeze()
	want := make([]uint32, 20)
	for i := range want {
		want[i] = uint32(i * 3)
	}
	copy(memsys.View[uint32](m.AS.HomeBytes(r.Base, 4*len(want))), want)
	stored := false
	m.Run(func(n *tempest.Node) {
		if n.ID == 1 {
			n.Charge(50_000) // after node 0's read, before its use
			tempest.WriteSpan(n, r.Base, make([]uint32, len(want)))
			stored = true
			return
		}
		got := tempest.ReadView(n, r.Base, make([]uint32, len(want)))
		n.Charge(100_000)
		n.SchedYield()
		if !stored {
			t.Fatalf("node 1 did not store between the read and its use")
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("the read returned %v, want %v", got, want)
		}
	})
}
