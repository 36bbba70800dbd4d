package tempest

import (
	"fmt"
	"testing"

	"lcm/internal/cost"
	"lcm/internal/fault"
	"lcm/internal/memsys"
	"lcm/internal/net"
	"lcm/internal/sched"
)

// TestParWorkersForcing pins the serial-forcing matrix: every
// configuration that cannot prove a conservative lookahead window must
// fall back to the serial token, completely.  The loss case
// is the "window collapses to zero" satellite: an armed unreliable
// network reports MinLatency 0 through reliableNet, because a dropped
// message means a remote operation can charge the sender nothing before
// the retransmission machinery runs.
func TestParWorkersForcing(t *testing.T) {
	base := func() *Machine {
		m := New(8, 32, cost.Default())
		m.DetSched = true
		m.Par = 4
		return m
	}
	cases := []struct {
		name string
		prep func(m *Machine)
		want int
	}{
		{"default", func(m *Machine) {}, 4},
		{"serial when Par=0", func(m *Machine) { m.Par = 0 }, 1},
		{"serial when Par=1", func(m *Machine) { m.Par = 1 }, 1},
		{"capped at P", func(m *Machine) { m.Par = 100 }, 8},
		{"loss collapses the window", func(m *Machine) { m.AttachLoss(net.LossConfig{Seed: 1, DropPerMil: 5}) }, 1},
		{"fault injection forces serial", func(m *Machine) { m.AttachFaults(fault.Plan{Seed: 1, CorruptPerMil: 5}) }, 1},
		{"recovery forces serial", func(m *Machine) { m.Recovery = true }, 1},
		{"sched hook forces serial", func(m *Machine) { m.SchedHook = func(*sched.Scheduler) {} }, 1},
		{"order-sensitive net forces serial", func(m *Machine) { m.SetNetwork(net.NewFatTree(net.Config{}, m.P, m.Cost)) }, 1},
		{"zero-cost net forces serial", nil, 1}, // built below: MinLatency 0
	}
	for _, tc := range cases {
		var m *Machine
		if tc.prep != nil {
			m = base()
			tc.prep(m)
		} else {
			m = New(8, 32, cost.Zero())
			m.DetSched = true
			m.Par = 4
		}
		if got := m.parWorkers(); got != tc.want {
			t.Errorf("%s: parWorkers() = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestParallelBarrierClockIdentity runs a skewed compute/barrier loop —
// each round a different node is the straggler, so admission windows
// open and slam shut exactly at barrier boundaries — serially and
// time-parallel, and requires every node's final clock to match.  This
// is the window-boundary case: a barrier wake is a SetReadyIntent whose
// clock lands exactly at the barrier-release cycle shared by all nodes,
// and the compute floor after it must keep later admission honest.
func TestParallelBarrierClockIdentity(t *testing.T) {
	const rounds = 6
	run := func(par int) []int64 {
		m, r := newTestMachine(t, 4, 256)
		m.DetSched = true
		m.Par = par
		m.Run(func(n *Node) {
			for round := 0; round < rounds; round++ {
				// Straggler rotates; compute spread keeps clocks unequal
				// going into the barrier.
				n.Compute(int64(1 + (n.ID+round)%4*37))
				a := r.Base + memsys.Addr(((n.ID+round)%4)*64)
				n.WriteF32(a, float32(n.ID*rounds+round))
				_ = n.ReadF32(a)
				n.Barrier()
			}
		})
		clocks := make([]int64, m.P)
		for i, nd := range m.Nodes {
			clocks[i] = nd.Clock()
		}
		return clocks
	}
	serial := run(0)
	parallel := run(4)
	if fmt.Sprint(serial) != fmt.Sprint(parallel) {
		t.Fatalf("final clocks diverged:\nserial   %v\nparallel %v", serial, parallel)
	}
	// Every node must have passed all barriers at the same release cycle,
	// so all clocks are equal after the final barrier.
	for i := 1; i < len(serial); i++ {
		if serial[i] != serial[0] {
			t.Fatalf("post-barrier clocks unequal: %v", serial)
		}
	}
}
