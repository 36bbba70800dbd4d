package core

import (
	"fmt"
	"reflect"
	"testing"

	"lcm/internal/cost"
	"lcm/internal/memsys"
	"lcm/internal/sched"
	"lcm/internal/stats"
	"lcm/internal/tempest"
)

// Differential tests of run-ahead: every program below runs twice on
// identical machines, once letting the LCM handlers post their effects and
// once applying them on the spot — forced the way the model checker forces
// it, with a (no-op) scheduler hook — and must leave behind the same
// machine, down to the order of the conflict log.

// outcome is everything a run leaves behind that the schedule determines.
type outcome struct {
	Clocks    []int64
	Counters  []stats.NodeCounters
	Shared    stats.Shared
	Conflicts []string
	Memory    []byte   // every block's home image
	Tags      []uint32 // every node's tag for every block
	Steps     int
}

// raProgram is one differential case: build allocates regions on a fresh
// machine (and may set machine knobs), body is the SPMD program.
type raProgram struct {
	name  string
	build func(m *tempest.Machine) []*memsys.Region
	body  func(n *tempest.Node, rs []*memsys.Region, lk *tempest.SimLock)
}

func alloc(t *testing.T, m *tempest.Machine, name string, blocks uint64, pol Policy, home memsys.HomePolicy) *memsys.Region {
	t.Helper()
	r := m.AS.Alloc(name, blocks*32, pol.Kind, home)
	if err := pol.ApplyTo(r); err != nil {
		t.Fatalf("ApplyTo(%s): %v", name, err)
	}
	return r
}

func word(r *memsys.Region, i int) memsys.Addr { return r.Base + memsys.Addr(i*4) }

func raPrograms(t *testing.T) []raProgram {
	return []raProgram{
		{
			// Float sums do not commute in the last bit: the merge order at
			// the home must be the serial order.
			name: "reduction-f32-merge-order",
			build: func(m *tempest.Machine) []*memsys.Region {
				return []*memsys.Region{alloc(t, m, "sum", 1, Reduction(SumF32{}), memsys.SingleHome)}
			},
			body: func(n *tempest.Node, rs []*memsys.Region, _ *tempest.SimLock) {
				for phase := 0; phase < 2; phase++ {
					for i, x := range []float32{1e8, 1, 3e-3} {
						n.Compute(int64(1 + (n.ID*7+i*3)%11))
						a := word(rs[0], (n.ID+i)%8)
						n.WriteF32(a, n.ReadF32(a)+x*float32(n.ID+1))
						n.FlushCopies()
					}
					n.ReconcileCopies()
				}
			},
		},
		{
			// Write-write and read-write violations: the conflict log is
			// in detection order, the merge survivor decided by merge order.
			name: "conflict-checked",
			build: func(m *tempest.Machine) []*memsys.Region {
				return []*memsys.Region{alloc(t, m, "chk", 4, Detect(true), memsys.Interleaved)}
			},
			body: func(n *tempest.Node, rs []*memsys.Region, _ *tempest.SimLock) {
				for phase := 0; phase < 3; phase++ {
					n.Compute(int64((n.ID * 13) % 5))
					_ = n.ReadU32(word(rs[0], (n.ID+phase)%32))
					n.WriteU32(word(rs[0], n.ID%4), uint32(100*phase+n.ID)) // neighbours collide
					n.WriteU32(word(rs[0], 8+n.ID%16), 7)                   // value-equal stores collide too
					n.FlushCopies()
					if n.ID%2 == 0 {
						n.WriteU32(word(rs[0], 16+(n.ID+phase)%8), uint32(n.ID))
					} else {
						_ = n.ReadU32(word(rs[0], 16+n.ID%8)) // reads what the even nodes write
					}
					n.ReconcileCopies()
				}
			},
		},
		{
			// A two-line cache: every fault first evicts, so Evict effects
			// and fault effects of one block interleave in one log.
			name: "eviction",
			build: func(m *tempest.Machine) []*memsys.Region {
				m.CacheLines = 2
				return []*memsys.Region{alloc(t, m, "d", 16, LooselyCoherent(), memsys.Interleaved)}
			},
			body: func(n *tempest.Node, rs []*memsys.Region, _ *tempest.SimLock) {
				for phase := 0; phase < 2; phase++ {
					for i := 0; i < 12; i++ {
						blk := (n.ID*5 + i*3) % 16
						if i%4 == 3 {
							n.WriteU32(word(rs[0], blk*8+n.ID%8), uint32(phase*1000+n.ID*16+i))
						} else {
							_ = n.ReadU32(word(rs[0], blk*8))
						}
					}
					n.ReconcileCopies()
				}
			},
		},
		{
			// Consumer-driven refresh of a stale region.
			name: "dropcopy-stale",
			build: func(m *tempest.Machine) []*memsys.Region {
				return []*memsys.Region{alloc(t, m, "s", 8, Stale(2), memsys.Interleaved)}
			},
			body: func(n *tempest.Node, rs []*memsys.Region, _ *tempest.SimLock) {
				for phase := 0; phase < 4; phase++ {
					if n.ID == phase%n.M.P {
						n.WriteU32(word(rs[0], 8*(phase%8)), uint32(phase+1))
					}
					for b := 0; b < 8; b++ {
						_ = n.ReadU32(word(rs[0], 8*b))
						if (n.ID+b+phase)%3 == 0 {
							n.DropCopy(word(rs[0], 8*b))
							_ = n.ReadU32(word(rs[0], 8*b+1))
						}
					}
					n.ReconcileCopies()
				}
			},
		},
		{
			// A simulated lock is a real scheduling point on either side of
			// handlers that run ahead inside the critical section.
			name: "simlock",
			build: func(m *tempest.Machine) []*memsys.Region {
				return []*memsys.Region{alloc(t, m, "acc", 2, Reduction(SumI64{}), memsys.SingleHome)}
			},
			body: func(n *tempest.Node, rs []*memsys.Region, lk *tempest.SimLock) {
				for round := 0; round < 3; round++ {
					n.Compute(int64(1 + (n.ID*3+round)%7))
					_ = n.ReadU32(word(rs[0], 8)) // a post before the lock's yield
					lk.Acquire(n)
					tempest.Write(n, rs[0].Base, tempest.Read[int64](n, rs[0].Base)+int64(n.ID+1))
					n.FlushCopies()
					lk.Release(n)
				}
				n.ReconcileCopies()
			},
		},
		{
			// The end of the body is a drain point.
			name: "no-final-barrier",
			build: func(m *tempest.Machine) []*memsys.Region {
				return []*memsys.Region{alloc(t, m, "d", 8, LooselyCoherent(), memsys.Interleaved)}
			},
			body: func(n *tempest.Node, rs []*memsys.Region, _ *tempest.SimLock) {
				n.Compute(int64(n.ID % 3))
				for b := 0; b < 8; b++ {
					_ = n.ReadU32(word(rs[0], 8*((b+n.ID)%8)))
				}
				n.WriteU32(word(rs[0], n.ID%64), 1)
				n.FlushCopies()
			},
		},
		{
			// Several times the effect ring between two barriers.
			name: "ring-full",
			build: func(m *tempest.Machine) []*memsys.Region {
				return []*memsys.Region{alloc(t, m, "big", 300, LooselyCoherent(), memsys.Interleaved)}
			},
			body: func(n *tempest.Node, rs []*memsys.Region, _ *tempest.SimLock) {
				for b := 0; b < 300; b++ {
					blk := (b*7 + n.ID*11) % 300
					if b%5 == 0 {
						n.WriteU32(word(rs[0], 8*blk+n.ID%8), uint32(n.ID*1000+b))
					} else {
						_ = n.ReadU32(word(rs[0], 8*blk))
					}
				}
				n.ReconcileCopies()
			},
		},
	}
}

// runProgram runs pr on a fresh machine and returns what it left behind.
func runProgram(t *testing.T, pr raProgram, v Variant, p int, seed uint64, onTheSpot bool) outcome {
	t.Helper()
	m := tempest.New(p, 32, cost.Default())
	rs := pr.build(m)
	lcm := New(v)
	m.SetProtocol(lcm)
	m.Freeze()
	m.SchedSeed = seed
	if onTheSpot {
		m.SchedHook = func(*sched.Scheduler) {}
	}
	if on, why := m.RunAhead(); on == onTheSpot {
		t.Fatalf("RunAhead() = %v (%q) with onTheSpot=%v", on, why, onTheSpot)
	}
	var lk tempest.SimLock
	if err := m.RunErr(func(n *tempest.Node) { pr.body(n, rs, &lk) }); err != nil {
		t.Fatalf("%s/%s P=%d seed=%d onTheSpot=%v: %v", pr.name, v, p, seed, onTheSpot, err)
	}
	st := m.Sched().Stats()
	if onTheSpot && st.Applies != 0 {
		t.Fatalf("%d effects were deferred under a scheduler hook", st.Applies)
	}
	if !onTheSpot && st.Applies == 0 {
		t.Fatalf("%s: no effect was deferred; the program tests nothing", pr.name)
	}
	out := outcome{Shared: m.Shared, Steps: m.Sched().Steps()}
	for _, nd := range m.Nodes {
		out.Clocks = append(out.Clocks, nd.Clock())
		out.Counters = append(out.Counters, nd.Ctr)
		for b := memsys.BlockID(0); uint32(b) < m.AS.NumBlocks(); b++ {
			tag := tempest.TagInvalid
			if l := nd.Line(b); l != nil {
				tag = l.Tag()
			}
			out.Tags = append(out.Tags, tag)
		}
	}
	for _, c := range lcm.Conflicts() {
		out.Conflicts = append(out.Conflicts, c.String())
	}
	for b := memsys.BlockID(0); uint32(b) < m.AS.NumBlocks(); b++ {
		out.Memory = append(out.Memory, m.AS.HomeData(b)...)
	}
	return out
}

func TestRunAheadMatchesOnTheSpot(t *testing.T) {
	for _, pr := range raPrograms(t) {
		for _, v := range []Variant{SCC, MCC} {
			for _, p := range []int{1, 4, 8, 33} {
				for _, seed := range []uint64{0, 1, 7} {
					ahead := runProgram(t, pr, v, p, seed, false)
					spot := runProgram(t, pr, v, p, seed, true)
					if reflect.DeepEqual(ahead, spot) {
						continue
					}
					at := reflect.TypeOf(ahead)
					for i := 0; i < at.NumField(); i++ {
						a, s := reflect.ValueOf(ahead).Field(i).Interface(), reflect.ValueOf(spot).Field(i).Interface()
						if !reflect.DeepEqual(a, s) {
							t.Errorf("%s/%s P=%d seed=%d: %s differs\n run-ahead   %v\n on the spot %v",
								pr.name, v, p, seed, at.Field(i).Name, clip(a), clip(s))
						}
					}
				}
			}
		}
	}
}

func clip(v any) string {
	s := fmt.Sprint(v)
	if len(s) > 600 {
		s = s[:600] + "..."
	}
	return s
}

// TestRunAheadProgramsExerciseTheirPoint guards the differential cases
// against rotting into no-ops: the conflict case must log conflicts, the
// eviction case must evict, the ring case must overflow the ring.
func TestRunAheadProgramsExerciseTheirPoint(t *testing.T) {
	byName := map[string]raProgram{}
	for _, pr := range raPrograms(t) {
		byName[pr.name] = pr
	}
	if o := runProgram(t, byName["conflict-checked"], MCC, 8, 0, false); len(o.Conflicts) < 4 || o.Shared.ReadWriteConflicts == 0 {
		t.Errorf("conflict-checked: %d conflicts logged, %d read-write", len(o.Conflicts), o.Shared.ReadWriteConflicts)
	}
	var evictions, flushes int64
	for _, c := range runProgram(t, byName["eviction"], SCC, 4, 0, false).Counters {
		evictions += c.Evictions
	}
	if evictions == 0 {
		t.Error("eviction: nothing was evicted")
	}
	for _, c := range runProgram(t, byName["ring-full"], SCC, 4, 0, false).Counters {
		flushes += c.Flushes + c.Misses
	}
	if flushes < 4*300 {
		t.Errorf("ring-full: %d effects over 4 nodes, want several rings' worth each", flushes)
	}
}
