package tempest_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"lcm/internal/core"
	"lcm/internal/cost"
	"lcm/internal/fault"
	"lcm/internal/memsys"
	"lcm/internal/stache"
	"lcm/internal/stats"
	"lcm/internal/tempest"
)

// TestDyingRunStopsTouchingTheMachine: when one node dies mid-phase, every
// sibling unwinds from where it is parked — a handler's yield, the barrier,
// a drain of posted effects, the wait for a simulated lock — without running
// another line of protocol code and without entering a critical section it
// was waiting for.  CI runs it under -race: before the poison contract,
// released nodes went straight back into their handlers, concurrently.
func TestDyingRunStopsTouchingTheMachine(t *testing.T) {
	const (
		p      = 8
		early  = 1_000_000 // node 0 dies here ...
		late   = 2 * early // ... while its siblings' next turns are due here
		blocks = 64
	)
	protocols := []struct {
		name string
		kind memsys.Kind
		new  func() tempest.Protocol
	}{
		{"stache", memsys.KindCoherent, func() tempest.Protocol { return stache.New() }},
		{"lcm-scc", memsys.KindLCM, func() tempest.Protocol { return core.New(core.SCC) }},
		{"lcm-mcc", memsys.KindLCM, func() tempest.Protocol { return core.New(core.MCC) }},
	}
	errBody := errors.New("node body bug")
	deaths := []struct {
		name string
		plan *fault.Plan // nil: node 0 panics by itself on its third fault
		want error
	}{
		{"panic", nil, errBody},
		{"kill", &fault.Plan{Seed: 1, KillNode: 0, KillAfter: 3}, fault.ErrKilled},
	}
	for _, pr := range protocols {
		for _, death := range deaths {
			t.Run(pr.name+"/"+death.name, func(t *testing.T) {
				m := tempest.New(p, 32, cost.Default())
				r := m.AS.Alloc("data", blocks*32, pr.kind, memsys.Interleaved)
				m.SetProtocol(pr.new())
				if death.plan != nil {
					m.AttachFaults(*death.plan)
				}
				m.Freeze()
				runAhead, _ := m.RunAhead()

				// remote(n, k) is the k-th block of r homed away from n.
				remote := func(n *tempest.Node, k int) memsys.Addr {
					for b := 0; b < blocks; b++ {
						a := r.Base + memsys.Addr(b*32)
						if m.AS.HomeOf(m.AS.Block(a)) != n.ID {
							if k == 0 {
								return a
							}
							k--
						}
					}
					panic("no such block")
				}
				var (
					lk      tempest.SimLock
					entered [p]bool
					snap    [p]stats.NodeCounters // Ctr before the call the node is parked in
				)
				// read is a faulting load: a scheduling point under Stache,
				// and under LCM whenever its handlers do not run ahead.
				read := func(n *tempest.Node, k int) {
					snap[n.ID] = n.Ctr
					n.ReadU32(remote(n, k))
				}
				barrier := func(n *tempest.Node) {
					snap[n.ID] = n.Ctr
					n.Barrier()
				}
				err := m.RunErr(func(n *tempest.Node) {
					switch n.ID {
					case 0: // dies on its third fault, once everyone else is parked
						n.Compute(early)
						n.SchedYield()
						for k := 0; ; k++ {
							if k == 2 && death.plan == nil {
								panic(errBody)
							}
							read(n, k)
						}
					case 1, 2: // in a handler's yield, or draining ahead of the barrier
						n.Compute(late)
						read(n, 0)
					case 3, 4: // in the barrier
					case 5: // draining three posted effects, or in the first handler's yield
						n.Compute(late)
						for k := 0; k < 3; k++ {
							read(n, k)
						}
						snap[n.ID] = n.Ctr
						n.SchedYield()
					case 6: // in the barrier, inside the critical section
						lk.Acquire(n)
						entered[n.ID] = true
					case 7: // waiting for the lock node 6 holds
						n.Compute(100)
						snap[n.ID] = n.Ctr
						lk.Acquire(n)
						entered[n.ID] = true
						lk.Release(n)
					}
					barrier(n)
				})

				var re *tempest.RunError
				if !errors.As(err, &re) {
					t.Fatalf("RunErr = %v, want *RunError", err)
				}
				if first := re.First(); first.Node != 0 || first.Collateral || !errors.Is(first.Err, death.want) {
					t.Fatalf("primary failure = %+v, want node 0 dying of %v", first, death.want)
				}
				if len(re.Nodes) != p {
					t.Fatalf("%d nodes failed, want all %d:\n%v", len(re.Nodes), p, err)
				}
				inHandler := "(*Node).SchedYield" // Stache's handlers yield
				switch {
				case pr.kind == memsys.KindLCM && runAhead:
					inHandler = "(*Node).drain" // the fault was posted; the node ran on to its next real scheduling call
				case pr.kind == memsys.KindLCM:
					inHandler = "(*Node).EnterHandler"
				}
				parkedIn := [p]string{
					1: inHandler, 2: inHandler, 5: inHandler,
					3: "(*Node).Barrier", 4: "(*Node).Barrier", 6: "(*Node).Barrier",
					7: "(*SimLock).Acquire",
				}
				for _, ne := range re.Nodes[1:] {
					id := ne.Node
					if !ne.Collateral || !errors.Is(ne.Err, tempest.ErrAborted) {
						t.Errorf("node %d: %v (collateral=%v), want a collateral ErrAborted", id, ne.Err, ne.Collateral)
					}
					if !strings.Contains(ne.Stack, parkedIn[id]) {
						t.Errorf("node %d was not parked in %s:\n%s", id, parkedIn[id], ne.Stack)
					}
					// Node.Barrier sends its packet between draining and
					// waiting; which side of it a node parked on is the
					// only thing a snapshot taken before the call misses.
					got, want := m.Nodes[id].Ctr, snap[id]
					sent := want
					m.Net.Barrier(id, &sent.Net)
					if got != want && got != sent {
						t.Errorf("node %d ran on after the abort:\ncounters %+v\nparked at %+v", id, got, want)
					}
				}
				if want := [p]bool{6: true}; entered != want {
					t.Errorf("critical section entered by %v, want node 6 only", fmt.Sprint(entered))
				}
			})
		}
	}
}
