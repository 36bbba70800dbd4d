package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lcm/internal/cost"
	"lcm/internal/memsys"
	"lcm/internal/net"
	"lcm/internal/sched"
	"lcm/internal/stache"
	"lcm/internal/stats"
	"lcm/internal/tempest"
	"lcm/internal/trace"
)

// Differential tests of run-ahead: every program below runs twice on
// identical machines, once letting the LCM handlers post their effects and
// once applying them on the spot — forced the way the model checker forces
// it, with a (no-op) scheduler hook — and must leave behind the same
// machine, down to the order of the conflict log and the stamp of every
// traced event; and that on both
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
	Trace     []trace.Event // every protocol event, in execution order
}

// traceCap retains every event of the largest differential program, which
// records 12 246 at this writing.
const traceCap = 1 << 14

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

	// For the read-only and owned programs: read faults on the declared
	// region that were to post, and that were to yield; and for the owned
	// ones, the same of write faults.
	posted, spot   int
	wPosted, wSpot int
}

// fault counts the read of coherent block b that node n is about to issue, if
// it faults, as one that posts or one that yields.
func (s *raSeen) fault(n *tempest.Node, b memsys.BlockID) {
	switch {
	case n.Tag(b) >= tempest.TagReadOnly:
	case n.PostsRead(b):
		s.posted++
	default:
		s.spot++
	}
}

// writeFault counts the write of coherent block b that node n is about to
// issue, if it faults, as one that posts or one that yields.
func (s *raSeen) writeFault(n *tempest.Node, b memsys.BlockID) {
	switch {
	case n.Tag(b) >= tempest.TagReadWrite:
	case n.PostsWrite(b):
		s.wPosted++
	default:
		s.wSpot++
	}
}

// watch runs op, node n's operation on coherent block b, which needs tag
// `need`.  On the spot the handler before op yielded, so a revocation keyed
// before it has happened by now and there is nothing to record; ahead of the
// token the tag still permits the operation, and only a drain inside op can
// make it see what the schedule says it sees.
func (s *raSeen) watch(n *tempest.Node, b memsys.BlockID, need tempest.Tag, op func()) {
	permitted := n.Tag(b) >= need
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
		if o != n && o.Tag(b) == tempest.TagReadWrite {
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

// declared is a program over one loosely coherent region, rs[0], and one
// sequentially consistent region of four blocks, rs[1], homed round the
// machine, which nodes declare read-only, or parts of it their own, for a
// phase.
func declared(t *testing.T, name string, body func(n *tempest.Node, lcm, coh *memsys.Region, seen *raSeen)) raProgram {
	seen := new(raSeen)
	return raProgram{
		name: name,
		seen: seen,
		build: func(m *tempest.Machine) []*memsys.Region {
			*seen = raSeen{}
			return []*memsys.Region{
				alloc(t, m, "loose", 8, LooselyCoherent(), memsys.Interleaved),
				alloc(t, m, "decl", 4, Coherent(), memsys.Interleaved),
			}
		},
		body: func(n *tempest.Node, rs []*memsys.Region, _ *tempest.SimLock) { body(n, rs[0], rs[1], seen) },
	}
}

// ownWrite is node n's write of v to word i of the owned region coh, counted.
func ownWrite(n *tempest.Node, coh *memsys.Region, i int, v uint32, seen *raSeen) {
	seen.writeFault(n, n.M.AS.Block(word(coh, i)))
	n.WriteU32(word(coh, i), v)
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
			// so the next read of the coherent line node 0 read last must be
			// withheld by tagFor until the drain.
			for round := 0; round < 3; round++ {
				_ = n.ReadU32(word(coh, 0))
				n.ReconcileCopies()
				switch n.ID {
				case 0:
					_ = n.ReadU32(word(coh, 1)) // a hit with an empty log
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
		// The read-only programs: a coherent region no node writes between
		// two barriers, declared so, whose read faults post under run-ahead
		// as the LCM's do (DESIGN.md "Run-ahead", the licence).  Each block
		// of it was written, the phase before, by a node that still holds it
		// exclusively: the first reader's fault downgrades the owner in its
		// local half and recalls it at apply, a three-hop read whose forward
		// leg queues on the fat tree.
		declared(t, "readonly-owned", func(n *tempest.Node, lcm, coh *memsys.Region, seen *raSeen) {
			for round := 0; round < 2; round++ {
				for b := 0; b < 4; b++ {
					if n.ID == (b+round)%n.M.P {
						n.WriteU32(word(coh, 8*b+round), uint32(10*round+b))
					}
				}
				n.ReconcileCopies()
				n.DeclareReadOnly(coh)
				n.Compute(int64((n.ID * 3) % 7))
				for b := 0; b < 4; b++ {
					a := word(coh, 8*((b+n.ID)%4)+round)
					seen.fault(n, n.M.AS.Block(a))
					v := n.ReadU32(a)
					_ = n.ReadU32(word(lcm, 8*((b+n.ID+round)%8)))
					n.Compute(int64(1 + (n.ID+b)%3))
					if b == 3 {
						n.WriteU32(word(lcm, 32+n.ID%32), v) // what the reads returned is part of the outcome
					}
				}
				n.ReconcileCopies()
			}
		}),
		// Node 0 reads the owned block before anyone has declared the region
		// (ten cycles into the round), so its fault yields; node 1 declares
		// and reads it later in the round but earlier on the host, posting —
		// its local half runs before node 0's handler, which still takes the
		// third hop, and its apply after it.
		declared(t, "readonly-beside-spot-read", func(n *tempest.Node, lcm, coh *memsys.Region, seen *raSeen) {
			b := n.M.AS.Block(coh.Base)
			for round := 0; round < 3; round++ {
				if n.ID == n.M.P-1 {
					n.WriteU32(word(coh, round), uint32(round+1))
				}
				n.ReconcileCopies()
				switch n.ID {
				case 0:
					n.Compute(10)
					seen.fault(n, b)
					n.WriteU32(word(lcm, round), n.ReadU32(word(coh, round)))
				case 1:
					n.DeclareReadOnly(coh)
					_ = n.ReadU32(word(lcm, 8+round))
					n.Compute(30)
					seen.fault(n, b)
					n.WriteU32(word(lcm, 16+round), n.ReadU32(word(coh, round)))
				}
				n.ReconcileCopies()
			}
		}),
		// The owned programs: a coherent block that only its owner touches
		// between two barriers, declared so, whose write faults (and read
		// faults) post under run-ahead (DESIGN.md "Run-ahead", the owned
		// licence).  Each round's owner first posts a fault on a loose
		// block, so its store to the owned block is issued with a post
		// outstanding.
		//
		// The owner holds the block read-only and two other nodes share it:
		// the upgrade invalidates both, and each invalidation is priced as
		// the one before it is paid for.
		declared(t, "owned-upgrade", func(n *tempest.Node, lcm, coh *memsys.Region, seen *raSeen) {
			for round := 0; round < 4; round++ {
				blk, o := round%4, round%n.M.P
				if d := (n.ID - o + n.M.P) % n.M.P; d < 3 {
					_ = n.ReadU32(word(coh, 8*blk+d))
				}
				n.ReconcileCopies()
				n.Compute(int64((n.ID * 5) % 7))
				if n.ID == o {
					n.DeclareOwned(coh, word(coh, 8*blk), word(coh, 8*blk+8))
					_ = n.ReadU32(word(lcm, 8*((round+n.ID)%8)))
					ownWrite(n, coh, 8*blk+round, uint32(round+1), seen)
				} else {
					_ = n.ReadU32(word(lcm, 8*((round+n.ID+1)%8)))
				}
				n.ReconcileCopies()
			}
		}),
		// The block is exclusive at another node from the phase before: the
		// owner's write is a three-hop miss, whose local half revokes the old
		// owner and whose forward leg queues on the fat tree.
		declared(t, "owned-three-hop", func(n *tempest.Node, lcm, coh *memsys.Region, seen *raSeen) {
			for round := 0; round < 4; round++ {
				blk, o := round%4, round%n.M.P
				if n.ID == (o+1)%n.M.P {
					n.WriteU32(word(coh, 8*blk+7), uint32(10*round))
				}
				n.ReconcileCopies()
				n.Compute(int64((n.ID * 3) % 5))
				if n.ID == o {
					n.DeclareOwned(coh, word(coh, 8*blk), word(coh, 8*blk+8))
					_ = n.ReadU32(word(lcm, 8*((round+n.ID)%8)))
					ownWrite(n, coh, 8*blk+round, uint32(round+1), seen)
				} else {
					_ = n.ReadU32(word(lcm, 8*((round+n.ID+3)%8)))
				}
				n.ReconcileCopies()
			}
		}),
		// A posted read, then a posted write, of one owned block that another
		// node wrote the phase before: the read's apply recalls that node to
		// read-only and the write's invalidates it — the write's local half
		// has already revoked it, and its apply decides the upgrade from the
		// directory the read left, not from the owner's tag.
		declared(t, "owned-read-then-write", func(n *tempest.Node, lcm, coh *memsys.Region, seen *raSeen) {
			for round := 0; round < 4; round++ {
				blk, o := (round+1)%4, round%n.M.P
				if n.ID == (o+2)%n.M.P {
					n.WriteU32(word(coh, 8*blk+6), uint32(10*round+3))
				}
				n.ReconcileCopies()
				if n.ID == o {
					n.DeclareOwned(coh, word(coh, 8*blk), word(coh, 8*blk+8))
					n.Compute(3)
					_ = n.ReadU32(word(lcm, 8*((round+n.ID)%8)))
					a := word(coh, 8*blk+6)
					seen.fault(n, n.M.AS.Block(a))
					v := n.ReadU32(a)
					ownWrite(n, coh, 8*blk+round, v+1, seen)
				} else {
					n.Compute(int64(1 + n.ID%4))
					_ = n.ReadU32(word(lcm, 8*((round+n.ID+5)%8)))
				}
				n.ReconcileCopies()
			}
		}),
		// Two chunks meet inside block 1: node 0 owns words [0, 12), node 1
		// words [12, 32), and neither declares the block they share, whose
		// write faults go on the spot between the posted ones of blocks 0,
		// 2 and 3.  Every node read every block the phase before.
		declared(t, "owned-beside-boundary", func(n *tempest.Node, lcm, coh *memsys.Region, seen *raSeen) {
			b := 1 % n.M.P
			for round := 0; round < 3; round++ {
				for w := 0; w < 32; w += 8 {
					_ = n.ReadU32(word(coh, w+n.ID%8))
				}
				n.ReconcileCopies()
				if n.ID == 0 {
					n.DeclareOwned(coh, word(coh, 0), word(coh, 12))
				}
				if n.ID == b {
					n.DeclareOwned(coh, word(coh, 12), word(coh, 32))
				}
				switch n.ID {
				case 0:
					n.Compute(2)
					_ = n.ReadU32(word(lcm, 8*round))
					for w := 0; w < 12; w += 3 {
						ownWrite(n, coh, w, uint32(100*round+w), seen)
					}
				case b:
					n.Compute(4)
					_ = n.ReadU32(word(lcm, 8*round+32))
					for w := 31; w >= 12; w -= 4 {
						ownWrite(n, coh, w, uint32(100*round+w), seen)
					}
				}
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
	tb := m.AttachTrace(traceCap)
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
	if tb.Wrapped() {
		t.Fatalf("%s/%s P=%d seed=%d: the trace wrapped; raise traceCap", pr.name, v, p, seed)
	}
	out := outcome{Shared: m.Shared, Steps: m.Sched().Steps(), Trace: tb.Events()}
	for _, nd := range m.Nodes {
		out.Clocks = append(out.Clocks, nd.Clock())
		out.Counters = append(out.Counters, nd.Ctr)
		for b := memsys.BlockID(0); uint32(b) < m.AS.NumBlocks(); b++ {
			out.Tags = append(out.Tags, nd.Tag(b))
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

// anyOr reports whether got is want, or want is -1.
func anyOr(got, want int64) bool { return want < 0 || got == want }

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

	// The read-only programs: coherent read faults posted, and the first of
	// each block's took the third hop to the node that wrote it; beside a
	// read that yields, node 0's, which is keyed first and takes the hop.
	owned := onFatTree(byName["readonly-owned"])
	ahead = runProgram(t, owned, SCC, 4, 0, false)
	var forwards int64
	for _, c := range ahead.Counters {
		forwards += c.Net.Msgs[net.MsgForward]
	}
	if owned.seen.posted == 0 || owned.seen.spot != 0 || forwards == 0 {
		t.Errorf("readonly-owned: %d read faults posted, %d yielded, %d forward legs", owned.seen.posted, owned.seen.spot, forwards)
	}
	beside := byName["readonly-beside-spot-read"]
	o := runProgram(t, beside, SCC, 4, 0, false)
	if beside.seen.posted != 3 || beside.seen.spot != 3 || o.Counters[0].Net.Msgs[net.MsgForward] != 3 || o.Counters[1].Net.Msgs[net.MsgForward] != 0 {
		t.Errorf("readonly-beside-spot-read: %d read faults posted, %d yielded; forward legs %d by node 0, %d by node 1",
			beside.seen.posted, beside.seen.spot, o.Counters[0].Net.Msgs[net.MsgForward], o.Counters[1].Net.Msgs[net.MsgForward])
	}

	// The owned programs, on the fat tree: every write fault on a declared
	// block posted, and each did what its case is about — an upgrade that
	// invalidated two sharers, a three-hop write, a posted three-hop read
	// before an upgrade — and on the block two chunks share, which nobody
	// declared, the writes yielded.  -1 is "any".
	for _, tc := range []struct {
		name                              string
		rPosted, wPosted, wSpot           int
		upgrades, invalidations, forwards int64
	}{
		{"owned-upgrade", 0, 4, 0, 4, 8, 0},
		{"owned-three-hop", 0, 4, 0, 0, 4, 4},
		{"owned-read-then-write", 4, 4, 0, 4, 4, 4},
		{"owned-beside-boundary", 0, 9, 6, -1, -1, -1},
	} {
		pr := onFatTree(byName[tc.name])
		o := runProgram(t, pr, SCC, 4, 0, false)
		var upgrades, invalidations, forwards int64
		for _, c := range o.Counters {
			upgrades += c.Upgrades
			invalidations += c.InvalidationsSent
			forwards += c.Net.Msgs[net.MsgForward]
		}
		seen := pr.seen
		if seen.posted != tc.rPosted || seen.spot != 0 || seen.wPosted != tc.wPosted || seen.wSpot != tc.wSpot ||
			!anyOr(upgrades, tc.upgrades) || !anyOr(invalidations, tc.invalidations) || !anyOr(forwards, tc.forwards) {
			t.Errorf("%s: read faults %d posted, %d yielded; write faults %d posted, %d yielded; %d upgrades, %d invalidations, %d forward legs; want %+v",
				tc.name, seen.posted, seen.spot, seen.wPosted, seen.wSpot, upgrades, invalidations, forwards, tc)
		}
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

// TestReadOnlyWriteFails: a node that writes a region declared read-only for
// the phase, or drops its copy of a block of one, fails the run with a
// tempest.DeclarationError naming the node, the block and the region — under
// Stache and under the LCM's coherent regions, whether reads run ahead or
// yield — wherever the write takes a write fault.  Node 1 holds block 0
// exclusively from the phase before.
//
// "owner-hit" is the one store the check cannot see on the spot: the owner's
// store hits, in a segment granted before node 0's read fault, so the
// schedule orders it before the read.  Ahead of the token node 0's read has
// already run, and its local half downgraded the owner, so the store faults
// and fails the run instead of letting the read return what the schedule
// says it does not.
func TestReadOnlyWriteFails(t *testing.T) {
	cases := []struct {
		name      string
		body      func(n *tempest.Node, coh *memsys.Region)
		node      int
		op        string
		spotFails bool
	}{
		{"reader", func(n *tempest.Node, coh *memsys.Region) {
			if n.ID == 2 {
				n.WriteU32(word(coh, 1), n.ReadU32(word(coh, 0))+1)
			}
		}, 2, "wrote", true},
		{"owner", func(n *tempest.Node, coh *memsys.Region) {
			switch n.ID {
			case 0:
				n.Compute(5)
				_ = n.ReadU32(word(coh, 0))
			case 1:
				n.Compute(20)
				n.SchedYield() // the store is ordered after node 0's read
				n.WriteU32(word(coh, 1), 7)
			}
		}, 1, "wrote", true},
		{"owner-hit", func(n *tempest.Node, coh *memsys.Region) {
			switch n.ID {
			case 0:
				n.Compute(5)
				_ = n.ReadU32(word(coh, 0))
			case 1:
				n.Compute(20)
				n.WriteU32(word(coh, 1), 7)
			}
		}, 1, "wrote", false},
		{"dropcopy", func(n *tempest.Node, coh *memsys.Region) {
			if n.ID == 2 {
				_ = n.ReadU32(word(coh, 0))
				n.DropCopy(word(coh, 0))
			}
		}, 2, "dropped its copy of", true},
	}
	protocols := map[string]func() tempest.Protocol{
		"stache": func() tempest.Protocol { return stache.New() },
		"lcm":    func() tempest.Protocol { return New(SCC) },
	}
	for _, tc := range cases {
		for pname, newProto := range protocols {
			for _, onTheSpot := range []bool{false, true} {
				m := tempest.New(4, 32, cost.Default())
				coh := alloc(t, m, "ro", 4, Coherent(), memsys.Interleaved)
				m.SetProtocol(newProto())
				m.Freeze()
				if onTheSpot {
					m.SchedHook = func(*sched.Scheduler) {}
				}
				err := m.RunErr(func(n *tempest.Node) {
					if n.ID == 1 {
						n.WriteU32(word(coh, 0), 1)
					}
					n.ReconcileCopies()
					n.DeclareReadOnly(coh)
					tc.body(n, coh)
					n.ReconcileCopies()
				})
				where := fmt.Sprintf("%s/%s onTheSpot=%v", tc.name, pname, onTheSpot)
				if onTheSpot && !tc.spotFails {
					if err != nil {
						t.Errorf("%s: RunErr = %v, want nil", where, err)
					}
					continue
				}
				var ro *tempest.DeclarationError
				if !errors.As(err, &ro) {
					t.Errorf("%s: RunErr = %v, want a DeclarationError", where, err)
					continue
				}
				want := tempest.DeclarationError{Node: tc.node, Block: m.AS.Block(coh.Base), Region: "ro", Op: tc.op, Owner: -1}
				if *ro != want {
					t.Errorf("%s: %+v, want %+v", where, *ro, want)
				}
				msg := err.Error()
				if !strings.Contains(msg, fmt.Sprintf("node %d %s block %d of region %q", tc.node, tc.op, want.Block, "ro")) {
					t.Errorf("%s: error %q does not name the node, the block and the region", where, msg)
				}
			}
		}
	}
}

// TestOwnedViolationFails: a node that reads, writes or drops its copy of a
// block another node declared its own for the phase, or declares such a block
// its own too, fails the run with a tempest.DeclarationError naming the node,
// the block, the region and the owner — under Stache and under the LCM's
// coherent regions, whether faults run ahead or yield.  Node 0 owns block 0;
// node 2 read the block the phase before, so it has a copy to drop, and acts
// after a yield at a later clock than the owner's write fault, which is then
// ordered first in either schedule: the write revoked the copy, and node 2's
// read faults (an access that hits is no handler, and is checked nowhere).
//
// "sharer-hit" is the one access the check cannot see on the spot: node 2
// reads its copy without a yield, at a clock before the owner's write fault,
// so the schedule orders the read first and it hits.  Ahead of the token the
// owner's write has already run — its store is in the home image — and its
// local half revoked node 2's copy, so the read faults and fails the run
// instead of returning a value the schedule says it does not.
func TestOwnedViolationFails(t *testing.T) {
	cases := []struct {
		name      string
		body      func(n *tempest.Node, coh *memsys.Region)
		op        string
		spotFails bool
	}{
		{"reader", func(n *tempest.Node, coh *memsys.Region) {
			if n.ID == 2 {
				n.Compute(20)
				n.SchedYield()
				_ = n.ReadU32(word(coh, 3))
			}
		}, "read", true},
		{"writer", func(n *tempest.Node, coh *memsys.Region) {
			if n.ID == 2 {
				n.Compute(20)
				n.SchedYield()
				n.WriteU32(word(coh, 3), 7)
			}
		}, "wrote", true},
		{"dropcopy", func(n *tempest.Node, coh *memsys.Region) {
			if n.ID == 2 {
				n.Compute(20)
				n.SchedYield()
				n.DropCopy(word(coh, 0))
			}
		}, "dropped its copy of", true},
		{"declared", func(n *tempest.Node, coh *memsys.Region) {
			if n.ID == 2 {
				n.Compute(20)
				n.SchedYield()
				n.DeclareOwned(coh, word(coh, 0), word(coh, 16))
			}
		}, "declared", true},
		{"sharer-hit", func(n *tempest.Node, coh *memsys.Region) {
			if n.ID == 2 {
				n.Compute(5)
				_ = n.ReadU32(word(coh, 3))
			}
		}, "read", false},
	}
	protocols := map[string]func() tempest.Protocol{
		"stache": func() tempest.Protocol { return stache.New() },
		"lcm":    func() tempest.Protocol { return New(SCC) },
	}
	for _, tc := range cases {
		for pname, newProto := range protocols {
			for _, onTheSpot := range []bool{false, true} {
				m := tempest.New(4, 32, cost.Default())
				coh := alloc(t, m, "own", 4, Coherent(), memsys.Interleaved)
				m.SetProtocol(newProto())
				m.Freeze()
				if onTheSpot {
					m.SchedHook = func(*sched.Scheduler) {}
				}
				err := m.RunErr(func(n *tempest.Node) {
					if n.ID == 2 {
						_ = n.ReadU32(word(coh, 0))
					}
					n.ReconcileCopies()
					if n.ID == 0 {
						n.DeclareOwned(coh, word(coh, 0), word(coh, 8))
						n.Compute(10)
						n.WriteU32(word(coh, 1), 1)
					}
					tc.body(n, coh)
					n.ReconcileCopies()
				})
				where := fmt.Sprintf("%s/%s onTheSpot=%v", tc.name, pname, onTheSpot)
				if onTheSpot && !tc.spotFails {
					if err != nil {
						t.Errorf("%s: RunErr = %v, want nil", where, err)
					}
					continue
				}
				var de *tempest.DeclarationError
				if !errors.As(err, &de) {
					t.Errorf("%s: RunErr = %v, want a DeclarationError", where, err)
					continue
				}
				want := tempest.DeclarationError{Node: 2, Block: m.AS.Block(coh.Base), Region: "own", Op: tc.op, Owner: 0}
				if *de != want {
					t.Errorf("%s: %+v, want %+v", where, *de, want)
				}
				if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("node 2 %s block %d of region %q, which node 0 declared its own", tc.op, want.Block, "own")) {
					t.Errorf("%s: error %q does not name the node, the block, the region and the owner", where, msg)
				}
			}
		}
	}
}

// TestDeclareOwnedCoversWholeBlocks: a declaration covers the blocks wholly
// inside its range and no other, expires at the next barrier, and is a no-op
// on a loosely coherent region and on a machine whose caches have a capacity.
func TestDeclareOwnedCoversWholeBlocks(t *testing.T) {
	for _, cacheLines := range []int{0, 4} {
		m := tempest.New(2, 32, cost.Default())
		m.CacheLines = cacheLines
		loose := alloc(t, m, "loose", 4, LooselyCoherent(), memsys.Interleaved)
		coh := alloc(t, m, "own", 4, Coherent(), memsys.Interleaved)
		m.SetProtocol(New(SCC))
		m.Freeze()
		var got [][]bool
		m.Run(func(n *tempest.Node) {
			if n.ID != 0 {
				n.Barrier()
				return
			}
			// Words 3 to 20: block 1 wholly, blocks 0 and 2 in part.
			n.DeclareOwned(coh, word(coh, 3), word(coh, 21))
			n.DeclareOwned(loose, loose.Base, loose.Base+memsys.Addr(loose.Size))
			owns := func() []bool {
				var o []bool
				for _, r := range []*memsys.Region{coh, loose} {
					for b := 0; b < 4; b++ {
						o = append(o, n.Owns(n.M.AS.Block(word(r, 8*b))))
					}
				}
				return o
			}
			got = append(got, owns())
			n.Barrier()
			got = append(got, owns())
		})
		want := [][]bool{make([]bool, 8), make([]bool, 8)}
		if cacheLines == 0 {
			want[0][1] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("CacheLines=%d: owned blocks (own region, then loose; before and after the barrier) %v, want %v", cacheLines, got, want)
		}
	}
}
