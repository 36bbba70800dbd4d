package stache

import (
	"fmt"
	"testing"

	"lcm/internal/cost"
	"lcm/internal/memsys"
	"lcm/internal/tempest"
)

// BenchmarkWriteFaultFanOut is a Stache write fault on a block that all 31
// other nodes of a P=32 machine share: one op is node 0's store, whose
// handler revokes 31 foreign tags and charges 31 invalidations.  Between ops
// the sharing is put back by hand (31 tag bytes and the directory entry), so
// the loop measures the fan-out, not 31 read faults.  Ops cycle over the
// same 256 blocks as BenchmarkPostedUpgrade's, so that the two touch as
// much tag and directory memory.  ns/sharer is ns/op over 31.
//
//	go test -run '^$' -bench WriteFaultFanOut -cpu 1 ./internal/stache
func BenchmarkWriteFaultFanOut(b *testing.B) {
	const p, blocks = 32, 256
	m := tempest.New(p, 32, cost.Default())
	r := m.AS.Alloc("data", blocks*32, memsys.KindCoherent, memsys.Interleaved)
	pr := New()
	m.SetProtocol(pr)
	m.Freeze()
	first := m.AS.Block(r.Base)
	m.Run(func(n *tempest.Node) {
		if n.ID != 0 {
			for i := 0; i < blocks; i++ {
				_ = n.ReadU32(r.Base + memsys.Addr(i*32)) // every other node installs its lines
			}
		}
		n.Barrier()
		if n.ID != 0 {
			return
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			blk := first + memsys.BlockID(i%blocks)
			e := &pr.entries[blk]
			for id := 1; id < p; id++ {
				m.Nodes[id].SetTag(blk, tempest.TagReadOnly)
				e.sharers.Add(id)
			}
			e.state = stateShared
			n.SetTag(blk, tempest.TagInvalid)
			n.WriteU32(r.Base+memsys.Addr(i%blocks*32), uint32(i))
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(p-1), "ns/sharer")
	})
	if e := &pr.entries[first]; e.state != stateExcl || e.owner != 0 {
		b.Fatalf("block not exclusive at node 0 after the last op")
	}
}

// BenchmarkPostedUpgrade is the posted twin of a write fault on a P=32
// machine that runs ahead: one op is node 0's store to a block it declared
// its own, which holds it read-only beside 0, 1 or 31 other sharers — the
// local half, which revokes their tags, and the apply, which makes the
// directory transition, counts and prices the invalidations and the upgrade.
// The store posts; a full effect log drains, one switch per ring of posts.
// Ops cycle over twice the ring's worth of blocks, so a block's last effect
// has been applied before its sharing is put back by hand.
//
//	go test -run '^$' -bench PostedUpgrade -cpu 1 ./internal/stache
func BenchmarkPostedUpgrade(b *testing.B) {
	const p, blocks = 32, 256
	for _, sharers := range []int{0, 1, 31} {
		b.Run(fmt.Sprintf("sharers=%d", sharers), func(b *testing.B) {
			m := tempest.New(p, 32, cost.Default())
			r := m.AS.Alloc("data", blocks*32, memsys.KindCoherent, memsys.Interleaved)
			pr := New()
			m.SetProtocol(pr)
			m.Freeze()
			if on, why := m.RunAhead(); !on {
				b.Fatalf("run-ahead off: %s", why)
			}
			first := m.AS.Block(r.Base)
			m.Run(func(n *tempest.Node) {
				if n.ID <= sharers {
					for i := 0; i < blocks; i++ {
						_ = n.ReadU32(r.Base + memsys.Addr(i*32)) // every sharer installs its lines
					}
				}
				n.Barrier()
				if n.ID != 0 {
					return
				}
				n.DeclareOwned(r, r.Base, r.Base+memsys.Addr(r.Size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					blk := first + memsys.BlockID(i%blocks)
					e := &pr.entries[blk]
					for id := 0; id <= sharers; id++ {
						m.Nodes[id].SetTag(blk, tempest.TagReadOnly)
						e.sharers.Add(id)
					}
					e.state = stateShared
					n.WriteU32(r.Base+memsys.Addr(i%blocks*32), uint32(i))
				}
				b.StopTimer()
				n.SchedYield() // apply what is still posted
				if n.Ctr.Upgrades != int64(b.N) || n.Ctr.InvalidationsSent != int64(b.N*sharers) {
					b.Fatalf("%d upgrades, %d invalidations after %d ops", n.Ctr.Upgrades, n.Ctr.InvalidationsSent, b.N)
				}
			})
			if st := m.Sched().Stats(); st.Applies != int64(b.N) {
				b.Fatalf("%d of %d write faults were applied as posts", st.Applies, b.N)
			}
		})
	}
}
