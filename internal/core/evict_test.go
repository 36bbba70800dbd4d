package core

import (
	"testing"

	"lcm/internal/cost"
	"lcm/internal/memsys"
	"lcm/internal/tempest"
)

func TestEvictionRefusesPrivateCopies(t *testing.T) {
	// The paper's Stache exists so "a processor's locally modified
	// (inconsistent) blocks are not lost by being flushed to their home
	// node": an LCM private copy must survive capacity pressure.
	m := tempest.New(1, 32, cost.Default())
	r := m.AS.Alloc("d", 32*16, memsys.KindLCM, memsys.Interleaved)
	pr := New(MCC)
	m.SetProtocol(pr)
	m.Freeze()
	m.CacheLines = 2
	m.Run(func(n *tempest.Node) {
		n.WriteU32(r.Base, 99) // private-modified block 0
		// Heavy read pressure tries to push it out.
		for i := 1; i < 10; i++ {
			n.ReadU32(r.Base + memsys.Addr(i*32))
		}
		b0 := m.AS.Block(r.Base)
		if n.Tag(b0) != tempest.TagPrivate {
			t.Error("private copy was evicted")
		}
		if got := n.ReadU32(r.Base); got != 99 {
			t.Errorf("private value lost: %d", got)
		}
		n.ReconcileCopies()
		if got := n.ReadU32(r.Base); got != 99 {
			t.Errorf("reconciled value %d, want 99", got)
		}
	})
}

func TestEvictionDropsReadOnlyLCMCopies(t *testing.T) {
	m := tempest.New(2, 32, cost.Default())
	r := m.AS.Alloc("d", 32*16, memsys.KindLCM, memsys.Interleaved)
	pr := New(MCC)
	m.SetProtocol(pr)
	m.Freeze()
	m.CacheLines = 2
	m.Run(func(n *tempest.Node) {
		if n.ID == 0 {
			for i := 0; i < 10; i++ {
				n.ReadU32(r.Base + memsys.Addr(i*32))
			}
			if n.Ctr.Evictions == 0 {
				t.Error("read-only copies were not evicted under pressure")
			}
		}
		n.ReconcileCopies()
	})
}

func TestLimitedCacheStillCorrect(t *testing.T) {
	// The multi-phase convergence computation must produce identical
	// results with a tiny cache (correctness is capacity-independent).
	run := func(lines int) uint32 {
		m := tempest.New(2, 32, cost.Default())
		r := m.AS.Alloc("d", 32*8, memsys.KindLCM, memsys.Interleaved)
		m.SetProtocol(New(MCC))
		m.Freeze()
		m.CacheLines = lines
		var out uint32
		m.Run(func(n *tempest.Node) {
			mine := r.Base + memsys.Addr(n.ID*32)
			theirs := r.Base + memsys.Addr((1-n.ID)*32)
			if n.ID == 0 {
				n.WriteU32(mine, 1)
				n.WriteU32(theirs, 2)
			}
			n.ReconcileCopies()
			for it := 0; it < 6; it++ {
				v := n.ReadU32(mine) + n.ReadU32(theirs)
				// Touch other blocks to create pressure.
				for i := 2; i < 8; i++ {
					_ = n.ReadU32(r.Base + memsys.Addr(i*32))
				}
				n.WriteU32(mine, v)
				n.ReconcileCopies()
			}
			if n.ID == 0 {
				out = n.ReadU32(mine)
			}
			n.Barrier()
		})
		return out
	}
	unbounded := run(0)
	tiny := run(2)
	if unbounded != tiny {
		t.Fatalf("capacity changed the answer: %d vs %d", unbounded, tiny)
	}
	if unbounded == 0 {
		t.Fatal("computation produced nothing")
	}
}
