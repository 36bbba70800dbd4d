package core

import (
	"testing"

	"lcm/internal/cost"
	"lcm/internal/memsys"
	"lcm/internal/tempest"
)

func TestInvariantsHoldAfterOracleProgram(t *testing.T) {
	for _, v := range []Variant{SCC, MCC} {
		prog := genProgram(777, 4, 64, 8, 40)
		m := tempest.New(4, 32, cost.Default())
		r := m.AS.Alloc("data", uint64(prog.elems)*4, memsys.KindLCM, memsys.Interleaved)
		pr := New(v)
		m.SetProtocol(pr)
		m.Freeze()
		m.Run(func(n *tempest.Node) {
			for ph := range prog.phases {
				for _, op := range prog.phases[ph][n.ID] {
					a := r.Base + memsys.Addr(op.elem*4)
					if op.write {
						n.WriteU32(a, op.val)
					} else {
						_ = n.ReadU32(a)
					}
					if op.endInv {
						n.FlushCopies()
					}
				}
				n.ReconcileCopies()
			}
		})
		if err := pr.CheckQuiescent(); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
	}
}

func TestInvariantsHoldMidPhase(t *testing.T) {
	// CheckInvariants (not Quiescent) must accept a machine paused with
	// live private copies.
	m := tempest.New(2, 32, cost.Default())
	r := m.AS.Alloc("d", 64, memsys.KindLCM, memsys.Interleaved)
	pr := New(MCC)
	m.SetProtocol(pr)
	m.Freeze()
	m.Run(func(n *tempest.Node) {
		if n.ID == 0 {
			n.WriteU32(r.Base, 5) // leave a private copy live
		}
		n.Barrier()
	})
	if err := pr.CheckInvariants(); err != nil {
		t.Fatalf("mid-phase invariants: %v", err)
	}
	if err := pr.CheckQuiescent(); err == nil {
		t.Fatal("CheckQuiescent must reject a live private copy")
	}
}

func TestInvariantsHoldWithMixedRegions(t *testing.T) {
	m := tempest.New(4, 32, cost.Default())
	loose := m.AS.Alloc("loose", 256, memsys.KindLCM, memsys.Interleaved)
	coh := m.AS.Alloc("coh", 256, memsys.KindCoherent, memsys.Interleaved)
	red := m.AS.Alloc("red", 8, memsys.KindLCM, memsys.SingleHome)
	if err := Reduction(SumI64{}).ApplyTo(red); err != nil {
		t.Fatalf("ApplyTo: %v", err)
	}
	pr := New(MCC)
	m.SetProtocol(pr)
	m.Freeze()
	m.Run(func(n *tempest.Node) {
		for it := 0; it < 3; it++ {
			n.WriteU32(loose.Base+memsys.Addr(n.ID*4), uint32(it))
			n.WriteU32(coh.Base+memsys.Addr(n.ID*32), uint32(it))
			tempest.Write(n, red.Base, tempest.Read[int64](n, red.Base)+1)
			n.FlushCopies()
			_ = n.ReadU32(loose.Base + memsys.Addr(((n.ID+1)%4)*4))
			n.ReconcileCopies()
		}
	})
	if err := pr.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
	// 4 nodes x 3 phases of +1 each.
	b := m.AS.Block(red.Base)
	if got := int64(m.AS.HomeData(b)[0]); got != 12 {
		t.Fatalf("reduction total = %d, want 12", got)
	}
}

// TestInvariantsAtWideMachines re-runs the directory audits on machines
// whose copysets spill past the inline 64-bit word: P=65 puts exactly
// one node in the spill, P=256 fills four words.  The access pattern
// forces wide sharer sets (every node reads block 0), wide writer sets
// (disjoint writes from low and high node IDs), and cross-word
// invalidation fan-out at reconcile.
func TestInvariantsAtWideMachines(t *testing.T) {
	for _, p := range []int{65, 256} {
		for _, v := range []Variant{SCC, MCC} {
			m := tempest.New(p, 32, cost.Default())
			r := m.AS.Alloc("data", uint64(p)*4, memsys.KindLCM, memsys.Interleaved)
			pr := New(v)
			m.SetProtocol(pr)
			m.Freeze()
			m.Run(func(n *tempest.Node) {
				for phase := 0; phase < 2; phase++ {
					_ = n.ReadU32(r.Base) // block 0: all P nodes share
					n.WriteU32(r.Base+memsys.Addr(n.ID*4), uint32(phase*p+n.ID))
					n.ReconcileCopies()
				}
			})
			if err := pr.CheckQuiescent(); err != nil {
				t.Fatalf("P=%d %v: %v", p, v, err)
			}
			for i := 0; i < p; i++ {
				b := m.AS.Block(r.Base + memsys.Addr(i*4))
				off := (r.Base + memsys.Addr(i*4)) & 31
				got := uint32(m.AS.HomeData(b)[off]) | uint32(m.AS.HomeData(b)[off+1])<<8 |
					uint32(m.AS.HomeData(b)[off+2])<<16 | uint32(m.AS.HomeData(b)[off+3])<<24
				if want := uint32(p + i); got != want {
					t.Fatalf("P=%d %v: elem %d = %d, want %d", p, v, i, got, want)
				}
			}
		}
	}
}

// TestOracleProgramAtWideMachines drives the random oracle program at
// P=65, crossing the spill boundary with an irregular access mix.
func TestOracleProgramAtWideMachines(t *testing.T) {
	for _, v := range []Variant{SCC, MCC} {
		prog := genProgram(4242, 65, 130, 4, 24)
		m := tempest.New(65, 32, cost.Default())
		r := m.AS.Alloc("data", uint64(prog.elems)*4, memsys.KindLCM, memsys.Interleaved)
		pr := New(v)
		m.SetProtocol(pr)
		m.Freeze()
		m.Run(func(n *tempest.Node) {
			for ph := range prog.phases {
				for _, op := range prog.phases[ph][n.ID] {
					a := r.Base + memsys.Addr(op.elem*4)
					if op.write {
						n.WriteU32(a, op.val)
					} else {
						_ = n.ReadU32(a)
					}
					if op.endInv {
						n.FlushCopies()
					}
				}
				n.ReconcileCopies()
			}
		})
		if err := pr.CheckQuiescent(); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
	}
}
