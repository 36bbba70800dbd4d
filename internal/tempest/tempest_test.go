package tempest

import (
	"testing"

	"lcm/internal/cost"
	"lcm/internal/memsys"
)

// fakeProtocol satisfies every fault by installing the home image
// read-write, with no coherence.  It lets the tests below exercise the
// machine, accessors, clocks and barriers in isolation.
type fakeProtocol struct {
	m          *Machine
	readFaults int
	writeFault int
	order      []fakeFault // every fault, in the order taken
}

type fakeFault struct {
	b     memsys.BlockID
	write bool
}

func (f *fakeProtocol) Name() string      { return "fake" }
func (f *fakeProtocol) Attach(m *Machine) { f.m = m }

func (f *fakeProtocol) ReadFault(n *Node, b memsys.BlockID) *Line {
	f.m.Lock(b)
	f.readFaults++
	f.order = append(f.order, fakeFault{b, false})
	n.Ctr.Misses++
	return n.Install(b, f.m.AS.HomeData(b), TagReadWrite)
}

func (f *fakeProtocol) WriteFault(n *Node, b memsys.BlockID) *Line {
	f.m.Lock(b)
	f.writeFault++
	f.order = append(f.order, fakeFault{b, true})
	n.Ctr.Misses++
	return n.Install(b, f.m.AS.HomeData(b), TagReadWrite)
}

func (f *fakeProtocol) MarkModification(n *Node, a memsys.Addr) {}
func (f *fakeProtocol) Evict(n *Node, b memsys.BlockID) bool {
	if l := n.Line(b); l != nil {
		l.SetTag(TagInvalid)
	}
	return true
}
func (f *fakeProtocol) FlushCopies(n *Node)     {}
func (f *fakeProtocol) ReconcileCopies(n *Node) { n.Barrier() }

func newTestMachine(t *testing.T, p int, words uint64) (*Machine, *memsys.Region) {
	t.Helper()
	m := New(p, 32, cost.Uniform(1))
	r := m.AS.Alloc("data", words*4, memsys.KindCoherent, memsys.Interleaved)
	m.SetProtocol(&fakeProtocol{})
	m.Freeze()
	return m, r
}

func TestAccessorsRoundTrip(t *testing.T) {
	m, r := newTestMachine(t, 1, 64)
	m.Run(func(n *Node) {
		n.WriteF32(r.Base, 1.5)
		Write[float64](n, r.Base+8, -2.25)
		Write[int32](n, r.Base+16, -7)
		Write[int64](n, r.Base+24, 1<<40)
		n.WriteU32(r.Base+40, 0xDEADBEEF)
		Write[uint64](n, r.Base+48, 0xCAFEBABE12345678)
		if v := n.ReadF32(r.Base); v != 1.5 {
			t.Errorf("f32 = %v", v)
		}
		if v := Read[float64](n, r.Base+8); v != -2.25 {
			t.Errorf("f64 = %v", v)
		}
		if v := Read[int32](n, r.Base+16); v != -7 {
			t.Errorf("i32 = %v", v)
		}
		if v := Read[int64](n, r.Base+24); v != 1<<40 {
			t.Errorf("i64 = %v", v)
		}
		if v := n.ReadU32(r.Base + 40); v != 0xDEADBEEF {
			t.Errorf("u32 = %#x", v)
		}
		if v := Read[uint64](n, r.Base+48); v != 0xCAFEBABE12345678 {
			t.Errorf("u64 = %#x", v)
		}
	})
}

func TestStraddlePanics(t *testing.T) {
	m, r := newTestMachine(t, 1, 64)
	m.Run(func(n *Node) {
		defer func() {
			if recover() == nil {
				t.Error("expected straddle panic")
			}
		}()
		Read[float64](n, r.Base+28) // 8 bytes at offset 28 of a 32-byte block
	})
}

func TestFaultOnlyOnInvalid(t *testing.T) {
	m, r := newTestMachine(t, 1, 64)
	fp := m.Protocol().(*fakeProtocol)
	m.Run(func(n *Node) {
		n.ReadF32(r.Base)     // fault
		n.ReadF32(r.Base + 4) // same block: hit
		n.WriteF32(r.Base, 1) // tag is RW: hit
		n.ReadF32(r.Base + 32)
	})
	if fp.readFaults != 2 || fp.writeFault != 0 {
		t.Fatalf("faults = %d read, %d write; want 2, 0", fp.readFaults, fp.writeFault)
	}
	c := m.TotalCounters()
	if c.Hits != 4 || c.Misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 4, 2", c.Hits, c.Misses)
	}
}

// DropCopy discards a read-only copy through the protocol's eviction
// path (so a real directory forgets the sharer) and leaves private
// copies alone.
func TestDropCopyEvictsReadOnlyOnly(t *testing.T) {
	m, r := newTestMachine(t, 1, 64)
	fp := m.Protocol().(*fakeProtocol)
	m.Run(func(n *Node) {
		b := m.AS.Block(r.Base)
		n.ReadF32(r.Base) // fault in (fake installs RW)

		// A private (writable) copy must survive a DropCopy.
		n.DropCopy(r.Base)
		if l := n.Line(b); l == nil || l.Tag() != TagReadWrite {
			t.Errorf("DropCopy touched a private copy")
		}

		// Demote to read-only: now DropCopy must evict, and the next
		// read must re-fault.
		n.Line(b).SetTag(TagReadOnly)
		n.DropCopy(r.Base)
		if l := n.Line(b); l != nil && l.Tag() != TagInvalid {
			t.Errorf("dropped copy still holds tag %v", l.Tag())
		}
		before := fp.readFaults
		n.ReadF32(r.Base)
		if fp.readFaults != before+1 {
			t.Errorf("read after DropCopy did not re-fault")
		}
	})
}

func TestClockChargesAndBarrierMax(t *testing.T) {
	m, _ := newTestMachine(t, 4, 64)
	m.Run(func(n *Node) {
		n.Charge(int64(100 * (n.ID + 1)))
		n.Barrier()
		// All nodes resume at max(100..400) + barrier cost (1).
		if got := n.Clock(); got != 401 {
			t.Errorf("node %d clock = %d, want 401", n.ID, got)
		}
	})
	if got := m.MaxClock(); got != 401 {
		t.Fatalf("max clock = %d, want 401", got)
	}
}

func TestChargeRemoteFoldsAtBarrier(t *testing.T) {
	m, _ := newTestMachine(t, 2, 64)
	m.Run(func(n *Node) {
		if n.ID == 0 {
			m.Nodes[1].ChargeRemote(500)
		}
		n.Barrier()
		if n.ID == 1 && n.Clock() < 500 {
			t.Errorf("stolen cycles not folded: clock = %d", n.Clock())
		}
	})
}

func TestBarrierReuse(t *testing.T) {
	m, _ := newTestMachine(t, 8, 64)
	m.Run(func(n *Node) {
		for i := 0; i < 100; i++ {
			n.Charge(1)
			n.Barrier()
		}
	})
	// 100 rounds x (1 compute + 1 barrier cost) lockstep.
	for _, n := range m.Nodes {
		if n.Clock() != 200 {
			t.Fatalf("node %d clock = %d, want 200", n.ID, n.Clock())
		}
		if n.Ctr.Barriers != 100 {
			t.Fatalf("node %d barriers = %d", n.ID, n.Ctr.Barriers)
		}
	}
}

func TestRunIsSPMD(t *testing.T) {
	m, r := newTestMachine(t, 4, 64)
	// Each node writes one word; afterwards all must be in home... no
	// coherence in fakeProtocol, but each node's own line holds it.
	m.Run(func(n *Node) {
		Write(n, r.Base+memsys.Addr(n.ID*32), int32(n.ID+1))
	})
	for i, n := range m.Nodes {
		b := m.AS.Block(r.Base + memsys.Addr(i*32))
		l := n.Line(b)
		if l == nil || l.Tag() != TagReadWrite {
			t.Fatalf("node %d missing its line", i)
		}
	}
}

func TestInstallReusesLine(t *testing.T) {
	m, r := newTestMachine(t, 1, 64)
	b := m.AS.Block(r.Base)
	n := m.Nodes[0]
	l1 := n.Install(b, m.AS.HomeData(b), TagReadOnly)
	l2 := n.Install(b, m.AS.HomeData(b), TagReadWrite)
	if l1 != l2 {
		t.Fatal("Install allocated a second line for the same block")
	}
	if l2.Tag() != TagReadWrite {
		t.Fatal("tag not updated")
	}
}

func TestFreezeGuards(t *testing.T) {
	m := New(2, 32, cost.Zero())
	m.AS.Alloc("a", 32, memsys.KindCoherent, memsys.Interleaved)
	mustPanic(t, func() { m.Freeze() }) // no protocol
	m.SetProtocol(&fakeProtocol{})
	mustPanic(t, func() { m.Run(func(*Node) {}) }) // not frozen
	m.Freeze()
	mustPanic(t, func() { m.Freeze() })                     // double freeze
	mustPanic(t, func() { m.SetProtocol(&fakeProtocol{}) }) // after freeze
}

func TestSimLockSerializesVirtualTime(t *testing.T) {
	m, _ := newTestMachine(t, 4, 64)
	var lk SimLock
	m.Run(func(n *Node) {
		lk.Acquire(n)
		n.Charge(10) // critical section
		lk.Release(n)
	})
	// Virtual time must show full serialization: the last node to hold
	// the lock ends at >= 4 * (acquire + 10).
	var max int64
	for _, n := range m.Nodes {
		if c := n.Clock(); c > max {
			max = c
		}
	}
	if max < 4*10 {
		t.Fatalf("lock did not serialize virtual time: max clock %d", max)
	}
}

func TestTagNames(t *testing.T) {
	for tag, want := range map[Tag]string{
		TagInvalid: "inv", TagReadOnly: "ro", TagReadWrite: "rw", TagPrivate: "priv",
	} {
		if got := TagName(tag); got != want {
			t.Fatalf("TagName(%d) = %q", tag, got)
		}
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
