package tempest

import (
	"errors"
	"testing"
	"time"

	"lcm/internal/cost"
	"lcm/internal/fault"
	"lcm/internal/memsys"
	"lcm/internal/net"
	"lcm/internal/sched"
)

// splitProtocol is the smallest protocol with split handlers: a read fault
// installs the home image locally, posts one effect — which steals a cycle
// from the block's home, records the order effects were applied in, and
// fails on demand — and sends a round trip to a remote home.
type splitProtocol struct {
	fakeProtocol
	applied []int // poster of each effect, in application order
	failOn  int   // node whose effects panic with errApply, -1 for none
}

var errApply = errors.New("split protocol: apply failed")

func (p *splitProtocol) ReadFault(n *Node, b memsys.BlockID) *Line {
	fx := n.EnterHandler(b)
	l := n.Install(b, p.m.AS.HomeData(b), TagReadOnly)
	n.Emit(fx)
	n.Ctr.Misses++
	if home := p.m.AS.HomeOf(b); home != n.ID {
		n.Send(fx, net.ClassRoundTrip, home, int64(p.m.AS.BlockSize))
	} else {
		n.Charge(10)
	}
	return l
}

func (p *splitProtocol) ApplyEffect(n *Node, e *Effect) {
	if n.ID == p.failOn {
		panic(errApply)
	}
	p.applied = append(p.applied, n.ID)
	if home := p.m.AS.HomeOf(e.Block); home != n.ID {
		p.m.Nodes[home].ChargeRemote(1)
	}
}

// newSplitMachine builds a frozen machine running splitProtocol; prep, if not
// nil, configures it before Freeze.
func newSplitMachine(p int, kind memsys.Kind, prep func(*Machine)) (*Machine, *splitProtocol, *memsys.Region) {
	m := New(p, 32, cost.Default())
	r := m.AS.Alloc("data", 64*32, kind, memsys.Interleaved)
	pr := &splitProtocol{failOn: -1}
	m.SetProtocol(pr)
	if prep != nil {
		prep(m)
	}
	m.Freeze()
	return m, pr, r
}

// fatTree puts m on a CM-5 fat tree, where what an exchange costs depends on
// when it is sent and on what was sent before it.
func fatTree(m *Machine) { m.SetNetwork(net.NewFatTree(net.Config{}, m.P)) }

// TestRunAheadPredicate: run-ahead is derived from the machine, never
// configured, and every way of losing it names its reason.
func TestRunAheadPredicate(t *testing.T) {
	cases := []struct {
		name string
		kind memsys.Kind
		prep func(m *Machine)
		want string // "" = on
	}{
		{"LCM-only machine", memsys.KindLCM, nil, ""},
		{"checker hook", memsys.KindLCM, func(m *Machine) { m.SchedHook = func(*sched.Scheduler) {} }, "scheduler hook"},
		{"fault plan", memsys.KindLCM, func(m *Machine) { m.AttachFaults(fault.Plan{Seed: 1, CorruptPerMil: 5}) }, "fault plan"},
		{"loss", memsys.KindLCM, func(m *Machine) { m.AttachFaults(fault.Plan{Seed: 1, DropPerMil: 5}) }, "fault plan"},
		{"recovery", memsys.KindLCM, func(m *Machine) { m.AttachFaults(fault.Plan{Recover: true}) }, "fault plan"},
		{"trace", memsys.KindLCM, func(m *Machine) { m.AttachTrace(16) }, "protocol trace"},
		{"fat tree → on", memsys.KindLCM, fatTree, ""},
		{"lossy fat tree", memsys.KindLCM, func(m *Machine) {
			fatTree(m)
			m.AttachFaults(fault.Plan{Seed: 1, DropPerMil: 5})
		}, "fault plan"},
		{"unsplit protocol", memsys.KindLCM, func(m *Machine) { m.SetProtocol(&fakeProtocol{}) }, "protocol without split handlers"},
		{"coherent region → on", memsys.KindCoherent, nil, ""},
	}
	for _, tc := range cases {
		m, _, _ := newSplitMachine(8, tc.kind, tc.prep)
		on, reason := m.RunAhead()
		if on != (tc.want == "") || reason != tc.want {
			t.Errorf("%s: RunAhead() = %v, %q; want reason %q", tc.name, on, reason, tc.want)
		}
	}
}

// TestRunAheadKeepsClocksAndOrder: the split protocol's effects are applied
// in the same order, steal the same cycles and — on either network — pay the
// same prices and wait in the same queues whether they are posted or applied
// on the spot; only the number of coroutine hand-offs differs.
func TestRunAheadKeepsClocksAndOrder(t *testing.T) {
	t.Run("uniform", func(t *testing.T) { testRunAheadKeepsClocksAndOrder(t, nil) })
	t.Run("fattree", func(t *testing.T) { testRunAheadKeepsClocksAndOrder(t, fatTree) })
}

func testRunAheadKeepsClocksAndOrder(t *testing.T, prep func(*Machine)) {
	run := func(onTheSpot bool) ([]int, []int64, net.Counters, sched.Stats) {
		m, pr, r := newSplitMachine(4, memsys.KindLCM, prep)
		if onTheSpot {
			m.SchedHook = func(*sched.Scheduler) {}
		}
		m.Run(func(n *Node) {
			for round := 0; round < 3; round++ {
				n.Compute(int64(1 + n.ID*3))
				for b := 0; b < 2*effectRing+5; b++ { // overflows the ring
					_ = n.ReadU32(r.Base + memsys.Addr(32*((b+n.ID+round)%64)))
					if b%7 == 0 {
						n.lines[m.AS.Block(r.Base)+memsys.BlockID((b+n.ID+round)%64)].SetTag(TagInvalid)
					}
				}
				for b := 0; b < 64; b++ {
					if l := n.lines[m.AS.Block(r.Base)+memsys.BlockID(b)]; l != nil {
						l.SetTag(TagInvalid) // fault again next round
					}
				}
				n.mruLine = nil
				n.Barrier()
			}
		})
		clocks := make([]int64, m.P)
		for i, nd := range m.Nodes {
			clocks[i] = nd.Clock()
		}
		return pr.applied, clocks, m.TotalCounters().Net, m.Sched().Stats()
	}
	order, clocks, traffic, ahead := run(false)
	wantOrder, wantClocks, wantTraffic, spot := run(true)
	if len(order) == 0 || len(order) != len(wantOrder) {
		t.Fatalf("%d effects applied with run-ahead, %d on the spot", len(order), len(wantOrder))
	}
	for i := range order {
		if order[i] != wantOrder[i] {
			t.Fatalf("effect %d applied for node %d with run-ahead, node %d on the spot", i, order[i], wantOrder[i])
		}
	}
	for i := range clocks {
		if clocks[i] != wantClocks[i] {
			t.Fatalf("final clocks differ: run-ahead %v, on the spot %v", clocks, wantClocks)
		}
	}
	queues := prep != nil // the fat tree: four nodes faulting in step must wait for one another
	if traffic != wantTraffic || traffic.TotalMsgs() == 0 || (queues && traffic.QueueCycles == 0) {
		t.Errorf("network counters: run-ahead %+v, on the spot %+v", traffic, wantTraffic)
	}
	if ahead.Grants != spot.Grants {
		t.Errorf("grants: %d with run-ahead, %d on the spot", ahead.Grants, spot.Grants)
	}
	if spot.Applies != 0 || ahead.Applies != int64(len(order)) {
		t.Errorf("deferred applies: %d with run-ahead (want %d), %d on the spot (want 0)", ahead.Applies, len(order), spot.Applies)
	}
	if ahead.Handoffs*4 > spot.Handoffs {
		t.Errorf("run-ahead made %d coroutine hand-offs, on the spot %d: expected a small fraction", ahead.Handoffs, spot.Handoffs)
	}
}

// TestRunErrAttributesDeferredApplyPanic: an effect that panics while
// another node's goroutine applies it is the posting node's failure — the
// run ends (no hang), the primary NodeError names the poster, and the cause
// unwraps.
func TestRunErrAttributesDeferredApplyPanic(t *testing.T) {
	for _, onTheSpot := range []bool{false, true} {
		m, pr, r := newSplitMachine(4, memsys.KindLCM, nil)
		pr.failOn = 2
		if onTheSpot {
			m.SchedHook = func(*sched.Scheduler) {}
		}
		done := make(chan error, 1)
		go func() {
			done <- m.RunErr(func(n *Node) {
				// Node 2's effect sorts after node 3's first, so under
				// run-ahead it is node 3 — the last to reach the barrier and
				// the one driving the scheduler — that applies it.
				n.Compute(int64(10 * (4 - n.ID)))
				_ = n.ReadU32(r.Base + memsys.Addr(32*n.ID))
				n.Barrier()
			})
		}()
		var err error
		select {
		case err = <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("onTheSpot=%v: RunErr hung after a panicking effect", onTheSpot)
		}
		var ne *NodeError
		if !errors.As(err, &ne) {
			t.Fatalf("onTheSpot=%v: RunErr = %v, want a *NodeError", onTheSpot, err)
		}
		if ne.Node != 2 || ne.Collateral {
			t.Errorf("onTheSpot=%v: primary failure is node %d (collateral=%v), want node 2", onTheSpot, ne.Node, ne.Collateral)
		}
		if !errors.Is(err, errApply) {
			t.Errorf("onTheSpot=%v: %v does not unwrap to the effect's panic value", onTheSpot, err)
		}
		var re *RunError
		if errors.As(err, &re) {
			for _, other := range re.Nodes {
				if other.Node != 2 && !other.Collateral {
					t.Errorf("onTheSpot=%v: node %d reported a primary failure: %v", onTheSpot, other.Node, other.Err)
				}
			}
		}
	}
}
