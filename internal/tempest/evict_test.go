package tempest

import (
	"testing"

	"lcm/internal/cost"
	"lcm/internal/memsys"
)

func TestUnboundedCacheNeverEvicts(t *testing.T) {
	m, r := newTestMachine(t, 1, 256)
	m.Run(func(n *Node) {
		for i := 0; i < 32; i++ {
			n.ReadU32(r.Base + memsys.Addr(i*32))
		}
	})
	if c := m.TotalCounters(); c.Evictions != 0 {
		t.Fatalf("evictions = %d", c.Evictions)
	}
}

func TestCapacityEnforcedFIFO(t *testing.T) {
	m := New(1, 32, cost.Uniform(1))
	r := m.AS.Alloc("d", 32*16, memsys.KindCoherent, memsys.Interleaved)
	m.SetProtocol(&fakeProtocol{})
	m.Freeze()
	m.CacheLines = 4
	m.Run(func(n *Node) {
		// Touch 8 distinct blocks; only 4 may stay resident.
		for i := 0; i < 8; i++ {
			n.ReadU32(r.Base + memsys.Addr(i*32))
		}
		resident := 0
		for i := 0; i < 8; i++ {
			b := m.AS.Block(r.Base + memsys.Addr(i*32))
			if n.Tag(b) != TagInvalid {
				resident++
			}
		}
		if resident > 4 {
			t.Errorf("resident = %d, capacity 4", resident)
		}
		// FIFO: the first-touched blocks were the victims.
		b0 := m.AS.Block(r.Base)
		if n.Tag(b0) != TagInvalid {
			t.Error("oldest block survived FIFO eviction")
		}
	})
	if c := m.TotalCounters(); c.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
}

func TestEvictedBlockRefetches(t *testing.T) {
	m := New(1, 32, cost.Uniform(1))
	r := m.AS.Alloc("d", 32*16, memsys.KindCoherent, memsys.Interleaved)
	m.SetProtocol(&fakeProtocol{})
	m.Freeze()
	m.CacheLines = 2
	m.Run(func(n *Node) {
		n.WriteU32(r.Base, 42)
		for i := 1; i < 6; i++ { // push block 0 out
			n.ReadU32(r.Base + memsys.Addr(i*32))
		}
		// The value survives in the home image (write-through) even
		// though the copy was evicted.
		if got := n.ReadU32(r.Base); got != 42 {
			t.Errorf("refetched value %d, want 42", got)
		}
	})
	c := m.TotalCounters()
	if c.Misses < 7 {
		t.Fatalf("misses = %d; the evicted block must refault", c.Misses)
	}
}
