package workloads

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lcm/internal/core"
	"lcm/internal/cstar"
	"lcm/internal/memsys"
	"lcm/internal/net"
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

// runAheadRows is every grid cell run-ahead is for: the Table-1 workloads,
// the two KV mixes with resharding on — every epoch rewrites the coherent
// KV.map under the readers' copies and has the old owners DropCopy their
// shards — and Unstructured again on an eight-line cache, whose victims
// include lines of the coherent graph arrays.  DropCopy and makeRoom peek at
// a tag before they reach Evict's scheduling point, which is order-sensitive
// now that coherent lines and outstanding posts meet in one run; these rows
// take both through real cells.  The cells keep their coherent writes a
// barrier away from the readers, so the revocation that races a post is
// staged in internal/core's mixed-region programs, not here.
func runAheadRows() []diffRow {
	rows := diffRows()
	for _, mix := range []string{"read", "write"} {
		rows = append(rows, diffRow{"KV-" + mix, func(sys cstar.System, cfg Config) Result {
			return RunKV(sys, kvTestSpec(mix), cfg)
		}})
	}
	return append(rows, diffRow{"Unstructured-8-lines", func(sys cstar.System, cfg Config) Result {
		cfg.CacheLines = 8
		return RunUnstructured(sys, UnstructuredSpec{Nodes: 128, Edges: 512, Iters: 4, Seed: 42, Stride: 8}, cfg)
	}})
}

// TestRunAheadMatchesOnTheSpotOnEveryCell: every grid cell, LCM and Copying, at
// machine sizes from one node to past the nodeset word (33 leaves are a
// fat tree that is no power of four), on three schedules and three
// interconnects — uniform, the fat tree, the fat tree with a quarter of the
// link bandwidth — produces the same Result (queueing cycles and the busiest
// link's occupancy are part of it), node clocks, conflict log, grant count
// and memory image whether its handlers run ahead of the token or yield at
// every fault.  All of them run ahead, the ones that keep a graph or a shard
// map in coherent memory included, on a network that queues included:
// run-ahead is per region, and an exchange is priced where it is ordered.
func TestRunAheadMatchesOnTheSpotOnEveryCell(t *testing.T) {
	nets := []*net.Config{nil, {Model: "fattree"}, {Model: "fattree", CyclesPerByte: 32}} // read only
	for _, row := range runAheadRows() {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel() // each cell's runs share nothing with another's
			for _, sys := range []cstar.System{cstar.Copying, cstar.LCMscc, cstar.LCMmcc} {
				for _, p := range []int{1, 4, 8, 33} {
					for _, seed := range []uint64{0, 1, 7} {
						for _, nw := range nets {
							diffRunAhead(t, row, sys, Config{P: p, Verify: true, SchedSeed: seed, Net: nw, TraceCap: diffTraceCap})
						}
					}
				}
			}
		})
	}
}

// diffTraceCap is the differential's trace, in events: the tail of a long
// cell, since a trace that wrapped still keeps its last events in order.
const diffTraceCap = 1 << 12

// diffRunAhead runs one cell ahead of the token and on the spot and
// compares everything the two runs leave behind, the trace included.
func diffRunAhead(t *testing.T, row diffRow, sys cstar.System, cfg Config) {
	t.Helper()
	ahead, aheadState := runObserved(row, sys, cfg, false)
	spot, spotState := runObserved(row, sys, cfg, true)
	where := fmt.Sprintf("%s P=%d seed=%d net=%s", sys, cfg.P, cfg.SchedSeed, ahead.Net)
	if cfg.Net != nil {
		where += fmt.Sprintf("/%d", cfg.Net.CyclesPerByte)
	}
	if ahead.Err != nil || spot.Err != nil {
		t.Fatalf("%s: run failed: run-ahead %v, on the spot %v", where, ahead.Err, spot.Err)
	}
	// A Copying cell posts only its read faults on read-only data, and a
	// one-node Adaptive machine has none: its node wrote every block of the
	// old copy in the copy phase.
	idle := sys == cstar.Copying && cfg.P == 1 && strings.HasPrefix(row.name, "Adaptive")
	if !ahead.Host.RunAhead || ahead.Host.Reason != "" || (ahead.Host.Applies == 0 && !idle) {
		t.Errorf("%s: run-ahead %v (%q), %d applies; want on",
			where, ahead.Host.RunAhead, ahead.Host.Reason, ahead.Host.Applies)
	}
	if spot.Host.RunAhead || spot.Host.Reason != "scheduler hook" || spot.Host.Applies != 0 {
		t.Errorf("%s: hooked run: run-ahead %v (%q), %d applies", where, spot.Host.RunAhead, spot.Host.Reason, spot.Host.Applies)
	}
	if cfg.Net != nil && cfg.P > 1 && (ahead.C.Net.QueueCycles == 0 || ahead.Links.MaxBusy == 0) {
		t.Errorf("%s: nothing queued (%d cycles) on links busy at most %d cycles", where, ahead.C.Net.QueueCycles, ahead.Links.MaxBusy)
	}
	if a, s := ahead.Trace.Events(), spot.Trace.Events(); !reflect.DeepEqual(a, s) {
		for i := range min(len(a), len(s)) {
			if a[i] != s[i] {
				t.Errorf("%s: trace event %d is %v with run-ahead, %v on the spot", where, i, a[i], s[i])
				break
			}
		}
		t.Errorf("%s: traces differ (%d and %d events retained)", where, len(a), len(s))
	}
	ahead.Host, spot.Host = HostStats{}, HostStats{}
	ahead.Trace, spot.Trace = nil, nil
	if !reflect.DeepEqual(ahead, spot) {
		t.Errorf("%s: Results differ:\n run-ahead   %+v\n on the spot %+v", where, ahead, spot)
	}
	if !reflect.DeepEqual(aheadState, spotState) {
		for i := range aheadState.Clocks {
			if aheadState.Clocks[i] != spotState.Clocks[i] {
				t.Errorf("%s: node %d clock %d with run-ahead, %d on the spot", where, i, aheadState.Clocks[i], spotState.Clocks[i])
				break
			}
		}
		t.Errorf("%s: machine state differs (steps %d vs %d, %d vs %d conflicts, memory equal: %v)",
			where, aheadState.Steps, spotState.Steps, len(aheadState.Conflicts), len(spotState.Conflicts),
			reflect.DeepEqual(aheadState.Memory, spotState.Memory))
	}
}
