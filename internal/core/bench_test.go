package core

import (
	"testing"

	"lcm/internal/cost"
	"lcm/internal/memsys"
	"lcm/internal/net"
	"lcm/internal/tempest"
)

// Micro-benchmarks of the LCM protocol primitives, in host wall-clock time
// (simulated cycles are constant per operation).  They bound the real cost
// of running the simulator itself, which matters for full-scale runs.

func benchMachine(b *testing.B, v Variant, blocks uint64) (*tempest.Machine, *memsys.Region) {
	b.Helper()
	m := tempest.New(2, 32, cost.Default())
	r := m.AS.Alloc("data", blocks*32, memsys.KindLCM, memsys.Interleaved)
	m.SetProtocol(New(v))
	m.Freeze()
	return m, r
}

// BenchmarkHitLoad measures the tag-check fast path.
func BenchmarkHitLoad(b *testing.B) {
	m, r := benchMachine(b, MCC, 4)
	m.Run(func(n *tempest.Node) {
		if n.ID != 0 {
			return
		}
		_ = n.ReadU32(r.Base) // install
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = n.ReadU32(r.Base)
		}
	})
}

// BenchmarkPrivateStore measures a store to an already-private copy.
func BenchmarkPrivateStore(b *testing.B) {
	m, r := benchMachine(b, MCC, 4)
	m.Run(func(n *tempest.Node) {
		if n.ID != 0 {
			return
		}
		n.WriteU32(r.Base, 1) // mark
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.WriteU32(r.Base, uint32(i))
		}
	})
}

// BenchmarkMarkFlushCycle measures the mcc per-invocation mark+flush pair,
// the inner loop of every LCM workload.
func BenchmarkMarkFlushCycle(b *testing.B) {
	m, r := benchMachine(b, MCC, 4)
	m.Run(func(n *tempest.Node) {
		if n.ID != 0 {
			return
		}
		n.WriteU32(r.Base, 1)
		n.FlushCopies()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.WriteU32(r.Base, uint32(i))
			n.FlushCopies()
		}
	})
}

// BenchmarkReconcilePhase measures a full two-node reconciliation over 64
// modified blocks.
func BenchmarkReconcilePhase(b *testing.B) {
	m, r := benchMachine(b, MCC, 64)
	m.Run(func(n *tempest.Node) {
		for i := 0; i < b.N; i++ {
			for blk := 0; blk < 32; blk++ {
				idx := (blk*2 + n.ID) * 8
				n.WriteU32(r.Base+memsys.Addr(idx*4), uint32(i))
			}
			n.ReconcileCopies()
		}
	})
}

// BenchmarkOracleProgram runs a whole random phased program per iteration
// (end-to-end protocol throughput).
func BenchmarkOracleProgram(b *testing.B) {
	prog := genProgram(42, 4, 64, 4, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runOracle(MCC, prog); err != nil {
			b.Fatal(err)
		}
	}
}

// postedFaults runs measure on node 0 of a 32-leaf fat tree, alone and
// running ahead, handing it one operation: a read fault on a block of a
// remote home — the handler posted, its effect applied by the scheduler's
// dispatch and its round trip priced there (tempest's applyHead) — which
// every 64th time first drains a full log.
func postedFaults(tb testing.TB, measure func(fault func())) {
	m := tempest.New(32, 32, cost.Default())
	m.SetNetwork(net.NewFatTree(net.Config{}, m.P))
	r := m.AS.Alloc("data", 32*32, memsys.KindLCM, memsys.Interleaved)
	m.SetProtocol(New(SCC))
	m.Freeze()
	if on, why := m.RunAhead(); !on {
		tb.Fatalf("run-ahead is off on the fat tree: %s", why)
	}
	faults := int64(0)
	m.Run(func(n *tempest.Node) {
		if n.ID != 0 {
			return
		}
		fault := func() {
			faults++
			a := r.Base + memsys.Addr(32*(1+faults%31)) // homes 1..31
			if l := n.Line(m.AS.Block(a)); l != nil {
				l.SetTag(tempest.TagInvalid)
			}
			_ = n.ReadU32(a)
		}
		for i := 0; i < 31; i++ {
			fault() // the first touch of a block allocates its line
		}
		measure(fault)
	})
	if got := m.Sched().Stats().Applies; got != faults || m.Nodes[0].Ctr.Net.Msgs[net.MsgDataReply] != faults {
		tb.Fatalf("%d faults: %d effects applied, %d replies priced", faults, got, m.Nodes[0].Ctr.Net.Msgs[net.MsgDataReply])
	}
}

// BenchmarkPostApplySend is the unit cost of a deferred exchange: one op is
// one posted remote read fault (postedFaults).  Read it next to sched's
// BenchmarkPostApply, the post alone, and net's BenchmarkFatTreeCharge, the
// price alone.
//
//	go test -run '^$' -bench PostApplySend -cpu 1 ./internal/core
func BenchmarkPostApplySend(b *testing.B) {
	b.ReportAllocs()
	postedFaults(b, func(fault func()) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fault()
		}
	})
}

// TestPostedSendDoesNotAllocate: posting a handler that sends, applying its
// effect and pricing its exchange allocate nothing, drains included.
func TestPostedSendDoesNotAllocate(t *testing.T) {
	var allocs float64
	postedFaults(t, func(fault func()) { allocs = testing.AllocsPerRun(4*64, fault) })
	if allocs != 0 {
		t.Errorf("%.2f allocs per posted remote read fault, want 0", allocs)
	}
}
