package core

import (
	"fmt"
	"reflect"
	"testing"

	"lcm/internal/cost"
	"lcm/internal/memsys"
	"lcm/internal/net"
	"lcm/internal/sched"
	"lcm/internal/stats"
	"lcm/internal/tempest"
)

// Differential tests of run-ahead: every program below runs twice on
// identical machines, once letting the LCM handlers post their effects and
// once applying them on the spot — forced the way the model checker forces
// it, with a (no-op) scheduler hook — and must leave behind the same
// machine, down to the order of the conflict log; and that on both
// interconnects: the uniform one, and a fat tree, where an exchange is priced
// by the clock it is sent at and by the traffic sent before it.

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

	// seen, for the mixed-region programs, is what the last run did inside
	// the operation the case is about (see raSeen.watch).
	seen *raSeen
}

// raSeen is host-side evidence — read from outside the simulation, no part
// of the outcome — that a mixed-region program reached its point.
type raSeen struct {
	drains  int // operations on a coherent line, permitted when issued, that took scheduling decisions inside: drains that are no barrier
	revoked int // of those, how many found the line revoked once drained
}

// watch runs op, node n's operation on coherent block b, which needs tag
// `need`.  On the spot the handler before op yielded, so a revocation keyed
// before it has happened by now and there is nothing to record; ahead of the
// token the tag still permits the operation, and only a drain inside op can
// make it see what the schedule says it sees.
func (s *raSeen) watch(n *tempest.Node, b memsys.BlockID, need tempest.Tag, op func()) {
	l := n.Line(b)
	permitted := l != nil && l.Tag() >= need
	steps, misses, upgrades := n.M.Sched().Steps(), n.Ctr.Misses, n.Ctr.Upgrades
	op()
	if !permitted || n.M.Sched().Steps() == steps {
		return
	}
	s.drains++
	// Revoked in between: the access faulted after all, or (DropCopy, which
	// then has nothing to drop) a writer now owns the line.
	revoked := n.Ctr.Misses > misses || n.Ctr.Upgrades > upgrades
	for _, o := range n.M.Nodes {
		if ol := o.Line(b); o != n && ol != nil && ol.Tag() == tempest.TagReadWrite {
			revoked = true
		}
	}
	if revoked {
		s.revoked++
	}
}

// mixed is a program over one loosely coherent region, rs[0], and one
// sequentially consistent region, rs[1], in the same address space.
func mixed(t *testing.T, name string, body func(n *tempest.Node, lcm, coh *memsys.Region, seen *raSeen)) raProgram {
	seen := new(raSeen)
	return raProgram{
		name: name,
		seen: seen,
		build: func(m *tempest.Machine) []*memsys.Region {
			*seen = raSeen{}
			return []*memsys.Region{
				alloc(t, m, "loose", 8, LooselyCoherent(), memsys.Interleaved),
				alloc(t, m, "sc", 2, Coherent(), memsys.SingleHome),
			}
		},
		body: func(n *tempest.Node, rs []*memsys.Region, _ *tempest.SimLock) { body(n, rs[0], rs[1], seen) },
	}
}

// onFatTree is pr on a machine whose interconnect is a CM-5 fat tree.
func onFatTree(pr raProgram) raProgram {
	build := pr.build
	pr.name += "/fattree"
	pr.build = func(m *tempest.Machine) []*memsys.Region {
		m.SetNetwork(net.NewFatTree(net.Config{}, m.P))
		return build(m)
	}
	return pr
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
		// The mixed-region programs: node 0 posts (a fault on a loose block,
		// keyed ten cycles into the round) and then touches a coherent line
		// its tag still permits, while node 1's write fault on that line is
		// keyed one cycle into the round — before the post, so the schedule
		// has it revoked by then.
		mixed(t, "coherent-read-revoked", func(n *tempest.Node, lcm, coh *memsys.Region, seen *raSeen) {
			for round := 0; round < 3; round++ {
				_ = n.ReadU32(word(coh, 0)) // every node shares the line
				n.ReconcileCopies()
				switch n.ID {
				case 0:
					n.Compute(10)
					_ = n.ReadU32(word(lcm, 8*round))
					var v uint32
					seen.watch(n, n.M.AS.Block(coh.Base), tempest.TagReadOnly, func() { v = n.ReadU32(word(coh, 0)) })
					n.WriteU32(word(lcm, 32+round), v) // what the load returned is part of the outcome
				case 1:
					n.Compute(1)
					n.WriteU32(word(coh, 0), uint32(round+1))
				}
				n.ReconcileCopies()
			}
		}),
		mixed(t, "coherent-store-hit", func(n *tempest.Node, lcm, coh *memsys.Region, seen *raSeen) {
			// Node 0 owns the block.  On even rounds nobody else touches it
			// and the store stays a hit: no miss, no handler, only the drain.
			// On odd rounds node 1's read fault, keyed before the post, takes
			// the value from the home image — which a store written through
			// ahead of its turn would already have changed — and downgrades
			// the line, so the store faults after all.
			for round := 0; round < 4; round++ {
				if n.ID == 0 {
					n.WriteU32(word(coh, 9), uint32(round))
				}
				n.ReconcileCopies()
				switch n.ID {
				case 0:
					n.Compute(10)
					_ = n.ReadU32(word(lcm, 8*round))
					seen.watch(n, n.M.AS.Block(coh.Base)+1, tempest.TagReadWrite, func() { n.WriteU32(word(coh, 9), uint32(100+round)) })
				case 1:
					n.Compute(1)
					if round%2 == 1 {
						n.WriteU32(word(lcm, 32+round), n.ReadU32(word(coh, 9)))
					}
				}
				n.ReconcileCopies()
			}
		}),
		mixed(t, "mark-with-coherent-mru", func(n *tempest.Node, lcm, coh *memsys.Region, seen *raSeen) {
			// The Mark directive posts without passing through a fault path,
			// so the MRU still names the coherent line the node read last.
			for round := 0; round < 3; round++ {
				_ = n.ReadU32(word(coh, 0))
				n.ReconcileCopies()
				switch n.ID {
				case 0:
					_ = n.ReadU32(word(coh, 1)) // a hit with an empty log: the line is the MRU
					n.Compute(10)
					n.Mark(word(lcm, 8*round))
					var v uint32
					seen.watch(n, n.M.AS.Block(coh.Base), tempest.TagReadOnly, func() { v = n.ReadU32(word(coh, 0)) })
					n.WriteU32(word(lcm, 8*round), v)
				case 1:
					n.Compute(1)
					n.WriteU32(word(coh, 0), uint32(round+1))
				}
				n.ReconcileCopies()
			}
		}),
		mixed(t, "dropcopy-after-post", func(n *tempest.Node, lcm, coh *memsys.Region, seen *raSeen) {
			// DropCopy peeks at the tag before it reaches Evict's scheduling
			// point: on odd rounds the copy it means to drop is revoked in
			// between and there is nothing to evict, on even rounds the home
			// must forget the sharer.  Mark's peek on a coherent block is
			// the same shape (odd rounds: node 0 owns the line until node 1's
			// read fault downgrades it).
			for round := 0; round < 4; round++ {
				if n.ID == 0 && round%2 == 1 {
					n.WriteU32(word(coh, 8), uint32(round))
				}
				_ = n.ReadU32(word(coh, 0))
				n.ReconcileCopies()
				switch n.ID {
				case 0:
					n.Compute(10)
					_ = n.ReadU32(word(lcm, 8*round))
					seen.watch(n, n.M.AS.Block(coh.Base), tempest.TagReadOnly, func() { n.DropCopy(word(coh, 0)) })
					_ = n.ReadU32(word(lcm, 8*round+32))
					n.Mark(word(coh, 8))
				case 1:
					n.Compute(1)
					if round%2 == 1 {
						n.WriteU32(word(coh, 0), uint32(round))
						_ = n.ReadU32(word(coh, 8))
					}
				}
				_ = n.ReadU32(word(coh, 0))
				n.ReconcileCopies()
			}
		}),
		{
			// Messages that queue, on a network that has queues: every node
			// fetches a block of one home in the same cycle, so each request
			// but the first granted waits at the home's network interface for
			// the ones before it, and node 2's write-back to that home then
			// rides channels they left busy.  Who waits, and for how long, is
			// decided by the order of the sends.
			name: "contention",
			build: func(m *tempest.Machine) []*memsys.Region {
				return []*memsys.Region{alloc(t, m, "hot", 64, LooselyCoherent(), memsys.SingleHome)}
			},
			body: func(n *tempest.Node, rs []*memsys.Region, _ *tempest.SimLock) {
				for phase := 0; phase < 2; phase++ {
					blk := (2*n.ID + phase) % 64 // fresh every phase: faults again
					if n.ID == 2 {
						n.WriteU32(word(rs[0], 8*blk+phase), uint32(phase+1))
						n.FlushCopies()
					} else {
						_ = n.ReadU32(word(rs[0], 8*blk))
					}
					n.ReconcileCopies()
				}
			},
		},
		{
			// makeRoom peeks at its victim's tag before Evict's scheduling
			// point too: a two-line cache whose victims alternate between
			// loose lines (evicted by a post) and coherent ones other nodes
			// keep revoking.
			name: "eviction-mixed",
			build: func(m *tempest.Machine) []*memsys.Region {
				m.CacheLines = 2
				return []*memsys.Region{
					alloc(t, m, "loose", 16, LooselyCoherent(), memsys.Interleaved),
					alloc(t, m, "sc", 4, Coherent(), memsys.Interleaved),
				}
			},
			body: func(n *tempest.Node, rs []*memsys.Region, _ *tempest.SimLock) {
				for phase := 0; phase < 2; phase++ {
					for i := 0; i < 16; i++ {
						n.Compute(int64(1 + (n.ID*3+i)%5))
						switch {
						case i%4 == 1:
							_ = n.ReadU32(word(rs[1], 8*((n.ID+i)%4)))
						case i%8 == 3:
							n.WriteU32(word(rs[1], 8*((n.ID+i)%4)+n.ID%8), uint32(phase*100+i))
						default:
							_ = n.ReadU32(word(rs[0], 8*((n.ID*5+i*3)%16)))
						}
					}
					n.ReconcileCopies()
				}
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
	base := raPrograms(t)
	progs := base
	for _, pr := range base {
		progs = append(progs, onFatTree(pr))
	}
	for _, pr := range progs {
		t.Run(pr.name, func(t *testing.T) {
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
								t.Errorf("%s P=%d seed=%d: %s differs\n run-ahead   %v\n on the spot %v",
									v, p, seed, at.Field(i).Name, clip(a), clip(s))
							}
						}
					}
				}
			}
		})
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

	// The mixed-region programs: node 0 reached the coherent line ahead of
	// the token and drained inside the operation, and at least once found the
	// line revoked in between — by node 1's write fault where the case says
	// invalidated (the program stores to no other coherent block), by its
	// read fault otherwise.
	for _, tc := range []struct {
		name        string
		invalidated bool
		hits        bool // some operations stay hits: a drain and nothing else
	}{
		{"coherent-read-revoked", true, false},
		{"coherent-store-hit", false, true},
		{"mark-with-coherent-mru", true, false},
		{"dropcopy-after-post", true, false},
	} {
		pr := byName[tc.name]
		o := runProgram(t, pr, SCC, 4, 0, false)
		if pr.seen.revoked == 0 || (tc.hits && pr.seen.drains == pr.seen.revoked) {
			t.Errorf("%s: %d operations drained inside, %d of them found the line revoked", tc.name, pr.seen.drains, pr.seen.revoked)
		}
		if tc.invalidated && o.Counters[1].InvalidationsSent == 0 {
			t.Errorf("%s: node 1 invalidated nothing", tc.name)
		}
		// On the spot nothing is issued ahead of the token, so no operation
		// the tag permits finds its line revoked.
		if runProgram(t, pr, SCC, 4, 0, true); pr.seen.revoked != 0 {
			t.Errorf("%s: on the spot, %d permitted operations found the line revoked", tc.name, pr.seen.revoked)
		}
	}

	// Contention, on the fat tree: requests sent in one cycle are granted in
	// node order, so nodes 2 and 3 wait behind node 1's.  The waits are the
	// same cycles both ways.
	contention := onFatTree(byName["contention"])
	ahead := runProgram(t, contention, SCC, 4, 0, false)
	spot := runProgram(t, contention, SCC, 4, 0, true)
	for _, id := range []int{2, 3} {
		if ahead.Counters[id].Net.QueueCycles == 0 {
			t.Errorf("contention: node %d queued behind nobody: %+v", id, ahead.Counters[id].Net)
		}
	}
	if !reflect.DeepEqual(ahead.Clocks, spot.Clocks) || !reflect.DeepEqual(ahead.Counters, spot.Counters) {
		t.Errorf("contention: clocks %v with run-ahead, %v on the spot", ahead.Clocks, spot.Clocks)
	}

	evictions = 0
	var invalidations int64
	for _, c := range runProgram(t, byName["eviction-mixed"], SCC, 4, 0, false).Counters {
		evictions += c.Evictions
		invalidations += c.InvalidationsSent
	}
	if evictions == 0 || invalidations == 0 {
		t.Errorf("eviction-mixed: %d evictions, %d invalidations of coherent lines", evictions, invalidations)
	}
}
