package stache

import (
	"testing"

	"lcm/internal/cost"
	"lcm/internal/memsys"
	"lcm/internal/tempest"
)

// BenchmarkWriteFaultFanOut is a Stache write fault on a block that all 31
// other nodes of a P=32 machine share: one op is node 0's store, whose
// handler revokes 31 foreign tags and charges 31 invalidations.  Between ops
// the sharing is put back by hand (31 tag bytes and the directory entry), so
// the loop measures the fan-out, not 31 read faults.  ns/sharer is ns/op
// over 31.
//
//	go test -run '^$' -bench WriteFaultFanOut -cpu 1 ./internal/stache
func BenchmarkWriteFaultFanOut(b *testing.B) {
	const p = 32
	m := tempest.New(p, 32, cost.Default())
	r := m.AS.Alloc("data", 32, memsys.KindCoherent, memsys.Interleaved)
	pr := New()
	m.SetProtocol(pr)
	m.Freeze()
	blk := m.AS.Block(r.Base)
	e := &pr.entries[blk]
	m.Run(func(n *tempest.Node) {
		if n.ID != 0 {
			_ = n.ReadU32(r.Base) // every other node installs its line
		}
		n.Barrier()
		if n.ID != 0 {
			return
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for id := 1; id < p; id++ {
				m.Nodes[id].SetTag(blk, tempest.TagReadOnly)
				e.sharers.Add(id)
			}
			e.state = stateShared
			n.SetTag(blk, tempest.TagInvalid)
			n.WriteU32(r.Base, uint32(i))
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(p-1), "ns/sharer")
	})
	if e.state != stateExcl || e.owner != 0 {
		b.Fatalf("block not exclusive at node 0 after the last op")
	}
}
