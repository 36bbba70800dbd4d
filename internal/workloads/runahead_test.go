package workloads

import (
	"reflect"
	"testing"

	"lcm/internal/core"
	"lcm/internal/cstar"
	"lcm/internal/memsys"
	"lcm/internal/sched"
	"lcm/internal/tempest"
)

// machineState is what a finished run leaves on the machine, beyond its
// Result: the things a schedule that moved would move first.
type machineState struct {
	Clocks    []int64
	Conflicts []string
	Memory    []byte
	Steps     int
}

// runObserved runs one differential row with the machine tapped: forceSpot
// installs a no-op scheduler hook — the checker's way of making every
// handler yield — and the machine's final state is read back after the
// run.
func runObserved(row diffRow, sys cstar.System, cfg Config, forceSpot bool) (Result, machineState) {
	var m *tempest.Machine
	cfg.tap = func(tm *tempest.Machine) {
		m = tm
		if forceSpot {
			tm.SchedHook = func(*sched.Scheduler) {}
		}
	}
	r := row.run(sys, cfg)
	st := machineState{Steps: m.Sched().Steps()}
	for _, nd := range m.Nodes {
		st.Clocks = append(st.Clocks, nd.Clock())
	}
	if p, ok := m.Protocol().(*core.LCM); ok {
		for _, c := range p.Conflicts() {
			st.Conflicts = append(st.Conflicts, c.String())
		}
	}
	for b := memsys.BlockID(0); uint32(b) < m.AS.NumBlocks(); b++ {
		st.Memory = append(st.Memory, m.AS.HomeData(b)...)
	}
	return r, st
}

// TestRunAheadMatchesOnTheSpotOnEveryLCMCell: the twelve LCM grid cells,
// at machine sizes from one node to past the nodeset word, on three
// schedules, produce the same Result, node clocks, conflict log, grant
// count and memory image whether their handlers run ahead of the token or
// yield at every fault.  Ten of the twelve run ahead; Unstructured keeps its
// graph in coherent memory and must say so.
func TestRunAheadMatchesOnTheSpotOnEveryLCMCell(t *testing.T) {
	for _, row := range diffRows() {
		for _, sys := range []cstar.System{cstar.LCMscc, cstar.LCMmcc} {
			for _, p := range []int{1, 4, 8, 33} {
				for _, seed := range []uint64{0, 1, 7} {
					cfg := Config{P: p, Verify: true, SchedSeed: seed}
					ahead, aheadState := runObserved(row, sys, cfg, false)
					spot, spotState := runObserved(row, sys, cfg, true)
					name := row.name + "/" + sys.String()
					if ahead.Err != nil || spot.Err != nil {
						t.Fatalf("%s P=%d seed=%d: run failed: run-ahead %v, on the spot %v", name, p, seed, ahead.Err, spot.Err)
					}
					wantOn, wantReason := true, ""
					if row.name == "Unstructured" {
						wantOn, wantReason = false, "coherent region"
					}
					if ahead.Host.RunAhead != wantOn || ahead.Host.Reason != wantReason || (ahead.Host.Applies > 0) != wantOn {
						t.Errorf("%s P=%d: run-ahead %v (%q), %d applies; want %v (%q)",
							name, p, ahead.Host.RunAhead, ahead.Host.Reason, ahead.Host.Applies, wantOn, wantReason)
					}
					if spot.Host.RunAhead || spot.Host.Reason != "scheduler hook" || spot.Host.Applies != 0 {
						t.Errorf("%s P=%d: hooked run: run-ahead %v (%q), %d applies", name, p, spot.Host.RunAhead, spot.Host.Reason, spot.Host.Applies)
					}
					ahead.Host, spot.Host = HostStats{}, HostStats{}
					if !reflect.DeepEqual(ahead, spot) {
						t.Errorf("%s P=%d seed=%d: Results differ:\n run-ahead   %+v\n on the spot %+v", name, p, seed, ahead, spot)
					}
					if !reflect.DeepEqual(aheadState, spotState) {
						for i := range aheadState.Clocks {
							if aheadState.Clocks[i] != spotState.Clocks[i] {
								t.Errorf("%s P=%d seed=%d: node %d clock %d with run-ahead, %d on the spot", name, p, seed, i, aheadState.Clocks[i], spotState.Clocks[i])
								break
							}
						}
						t.Errorf("%s P=%d seed=%d: machine state differs (steps %d vs %d, %d vs %d conflicts, memory equal: %v)",
							name, p, seed, aheadState.Steps, spotState.Steps, len(aheadState.Conflicts), len(spotState.Conflicts),
							reflect.DeepEqual(aheadState.Memory, spotState.Memory))
					}
				}
			}
		}
	}
}
