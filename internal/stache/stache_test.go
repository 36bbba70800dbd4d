package stache

import (
	"testing"

	"lcm/internal/cost"
	"lcm/internal/memsys"
	"lcm/internal/tempest"
)

func newMachine(t *testing.T, p int, blocks uint64) (*tempest.Machine, *memsys.Region, *Protocol) {
	t.Helper()
	m := tempest.New(p, 32, cost.Default())
	r := m.AS.Alloc("data", blocks*32, memsys.KindCoherent, memsys.Interleaved)
	pr := New()
	m.SetProtocol(pr)
	m.Freeze()
	return m, r, pr
}

func TestReadSharing(t *testing.T) {
	m, r, pr := newMachine(t, 4, 8)
	m.AS.HomeBytes(r.Base, 4)[0] = 42
	m.Run(func(n *tempest.Node) {
		if v := n.ReadU32(r.Base); v != 42 {
			t.Errorf("node %d read %d", n.ID, v)
		}
	})
	state, _, sharers := pr.inspect(m.AS.Block(r.Base))
	if state != "shared" || sharers != 0xF {
		t.Fatalf("state %s sharers %#x, want shared 0xf", state, sharers)
	}
	c := m.TotalCounters()
	if c.Misses != 4 {
		t.Fatalf("misses = %d, want 4", c.Misses)
	}
	// Home of block 0 under interleaving is node 0: one local fill.
	if c.LocalFills != 1 || c.RemoteMisses != 3 {
		t.Fatalf("local %d remote %d, want 1, 3", c.LocalFills, c.RemoteMisses)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	m, r, pr := newMachine(t, 4, 8)
	b := m.AS.Block(r.Base)
	m.Run(func(n *tempest.Node) {
		n.ReadU32(r.Base) // all nodes share
		n.Barrier()
		if n.ID == 2 {
			n.WriteU32(r.Base, 99)
		}
		n.Barrier()
	})
	state, owner, sharers := pr.inspect(b)
	if state != "excl" || owner != 2 || sharers != 0 {
		t.Fatalf("state=%s owner=%d sharers=%#x", state, owner, sharers)
	}
	// Every other node's copy must have been invalidated.
	for i, n := range m.Nodes {
		want := tempest.TagInvalid
		if i == 2 {
			want = tempest.TagReadWrite
		}
		if tag := n.Tag(b); tag != want {
			t.Fatalf("node %d tag %s", i, tempest.TagName(tag))
		}
	}
	c := m.TotalCounters()
	if c.Upgrades != 1 {
		t.Fatalf("upgrades = %d, want 1 (writer held a read-only copy)", c.Upgrades)
	}
	if c.InvalidationsSent != 3 {
		t.Fatalf("invalidations = %d, want 3", c.InvalidationsSent)
	}
}

func TestThreeHopReadRecallsDirty(t *testing.T) {
	m, r, pr := newMachine(t, 4, 8)
	b := m.AS.Block(r.Base)
	m.Run(func(n *tempest.Node) {
		if n.ID == 1 {
			n.WriteU32(r.Base, 7) // dirty exclusive at node 1
		}
		n.Barrier()
		if n.ID == 3 {
			if v := n.ReadU32(r.Base); v != 7 {
				t.Errorf("read %d, want 7 from dirty owner", v)
			}
		}
		n.Barrier()
	})
	state, _, sharers := pr.inspect(b)
	if state != "shared" || sharers != (1<<1|1<<3) {
		t.Fatalf("state=%s sharers=%#x, want shared nodes 1,3", state, sharers)
	}
	// The home image must now hold the written value.
	if got := m.AS.HomeBytes(r.Base, 4)[0]; got != 7 {
		t.Fatalf("home image %d, want 7", got)
	}
	// Old owner keeps a read-only copy.
	if m.Nodes[1].Tag(b) != tempest.TagReadOnly {
		t.Fatal("old owner not downgraded to read-only")
	}
}

func TestThreeHopWriteMigratesOwnership(t *testing.T) {
	m, r, pr := newMachine(t, 4, 8)
	b := m.AS.Block(r.Base)
	m.Run(func(n *tempest.Node) {
		if n.ID == 0 {
			n.WriteU32(r.Base, 5)
		}
		n.Barrier()
		if n.ID == 3 {
			n.WriteU32(r.Base+4, 6) // migrate exclusive 0 -> 3
		}
		n.Barrier()
	})
	state, owner, _ := pr.inspect(b)
	if state != "excl" || owner != 3 {
		t.Fatalf("state=%s owner=%d, want excl 3", state, owner)
	}
	if m.Nodes[0].Tag(b) != tempest.TagInvalid {
		t.Fatal("old owner not invalidated")
	}
	// Node 3's copy must carry node 0's value.
	if got := m.Nodes[3].Data(b)[0]; got != 5 {
		t.Fatalf("migrated copy lost the dirty value: %d", got)
	}
}

func TestExclusiveReuseIsSilent(t *testing.T) {
	m, r, _ := newMachine(t, 2, 8)
	m.Run(func(n *tempest.Node) {
		if n.ID == 0 {
			for i := 0; i < 100; i++ {
				n.WriteU32(r.Base, uint32(i))
				_ = n.ReadU32(r.Base)
			}
		}
	})
	c := m.TotalCounters()
	if c.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (first write only)", c.Misses)
	}
	if c.Hits != 200 {
		t.Fatalf("hits = %d, want 200", c.Hits)
	}
}

func TestPingPongCountsPerTransfer(t *testing.T) {
	// Two nodes alternately write the same block in barrier-separated
	// steps: every step after the first transfers ownership (3-hop).
	m, r, _ := newMachine(t, 2, 8)
	const steps = 10
	m.Run(func(n *tempest.Node) {
		for s := 0; s < steps; s++ {
			if s%2 == n.ID {
				n.WriteU32(r.Base, uint32(s))
			}
			n.Barrier()
		}
	})
	c := m.TotalCounters()
	if c.Misses != steps {
		t.Fatalf("misses = %d, want %d (one transfer per step)", c.Misses, steps)
	}
}

func TestDirectivesAreCoherentNoOps(t *testing.T) {
	m, r, _ := newMachine(t, 2, 8)
	m.Run(func(n *tempest.Node) {
		if n.ID == 0 {
			n.Mark(r.Base) // behaves as write preparation
			n.WriteU32(r.Base, 3)
		}
		n.FlushCopies() // no-op
		n.ReconcileCopies()
		// After "reconciliation" the other node reads the value through
		// the ordinary protocol.
		if n.ID == 1 {
			if v := n.ReadU32(r.Base); v != 3 {
				t.Errorf("read %d, want 3", v)
			}
		}
	})
	c := m.TotalCounters()
	if c.Barriers != 2 {
		t.Fatalf("barriers = %d, want 2 (ReconcileCopies is one barrier per node)", c.Barriers)
	}
}

func TestHomeWriteLocalFill(t *testing.T) {
	m, r, _ := newMachine(t, 4, 8)
	// Block 1 is homed at node 1 under interleaving.
	a := r.Base + 32
	m.Run(func(n *tempest.Node) {
		if n.ID == 1 {
			n.WriteU32(a, 1)
		}
	})
	c := m.TotalCounters()
	if c.LocalFills != 1 || c.RemoteMisses != 0 {
		t.Fatalf("local %d remote %d, want 1, 0", c.LocalFills, c.RemoteMisses)
	}
}

func TestVirtualTimeOrdering(t *testing.T) {
	// A remote miss must cost more than a local fill, which must cost
	// more than a hit, under the default model.
	m, r, _ := newMachine(t, 2, 8)
	var remote, local, hit int64
	m.Run(func(n *tempest.Node) {
		if n.ID != 0 {
			return
		}
		c0 := n.Clock()
		n.ReadU32(r.Base) // home 0: local fill
		local = n.Clock() - c0
		c0 = n.Clock()
		n.ReadU32(r.Base + 32) // home 1: remote
		remote = n.Clock() - c0
		c0 = n.Clock()
		n.ReadU32(r.Base + 4) // hit
		hit = n.Clock() - c0
	})
	if !(remote > local && local > hit && hit > 0) {
		t.Fatalf("cost ordering violated: remote=%d local=%d hit=%d", remote, local, hit)
	}
}
