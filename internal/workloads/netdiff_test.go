package workloads

import (
	"testing"

	"lcm/internal/cost"
	"lcm/internal/cstar"
	"lcm/internal/memsys"
	"lcm/internal/net"
	"lcm/internal/sched"
	"lcm/internal/tempest"
)

// These tests pin the exact virtual-cycle charge of every remote protocol
// message path as a closed-form expression of the cost model.  They were
// written against the flat charging that predates internal/net and must
// keep passing with the default (uniform) network model: that is the
// bit-exactness contract of `-net=uniform`.
//
// Each scenario has a single acting node per phase, and assertions are
// limited to quantities that cannot depend on goroutine interleaving: the
// final actor's own clock (its charges plus deterministic barrier maxima
// it inherited) and machine-total counters.

// netdiffMachine builds a P-node machine whose vector of n float32s is
// Blocked across homes, so the block owned by each node is known.
func netdiffMachine(t *testing.T, p, n int, sys cstar.System) (*tempest.Machine, *cstar.VectorF32, cost.Model) {
	t.Helper()
	c := cost.Default()
	m := cstar.NewMachine(p, 32, c, sys)
	v := cstar.NewVectorF32(m, "v", n, cstar.DataPolicy(sys), memsys.Blocked)
	m.Freeze()
	return m, v, c
}

// TestStacheRemoteChargeFormulas drives one remote read miss, one local
// fill, and one remote upgrade through the Stache protocol from a single
// actor and checks the actor's clock against the cost-model formula.
func TestStacheRemoteChargeFormulas(t *testing.T) {
	// P=2, 16 floats = 2 blocks: block 0 homed at node 0, block 1 at 1.
	m, v, c := netdiffMachine(t, 2, 16, cstar.Copying)
	bs := int64(32)
	m.Run(func(n *tempest.Node) {
		if n.ID != 0 {
			return
		}
		_ = v.Get(n, 8)  // remote read miss on block 1
		_ = v.Get(n, 0)  // local fill on block 0
		v.Set(n, 8, 1.5) // remote upgrade (we hold block 1 read-only)
	})
	n0 := m.Nodes[0]
	want := (c.RemoteRoundTrip + bs*c.PerByte + c.CacheHit) + // remote miss
		(c.LocalFill + c.CacheHit) + // local fill
		(c.Upgrade + c.CacheHit) // upgrade
	if got := n0.Clock(); got != want {
		t.Errorf("actor clock = %d, want %d", got, want)
	}
	// The home of block 1 was charged handler occupancy for the miss and
	// the upgrade.
	if got, want := m.Nodes[1].Clock(), 2*c.HomeOccupancy; got != want {
		t.Errorf("home clock = %d, want %d", got, want)
	}
	tc := m.TotalCounters()
	if tc.Misses != 2 || tc.RemoteMisses != 1 || tc.LocalFills != 1 || tc.Upgrades != 1 {
		t.Errorf("counters: %+v", tc)
	}
}

// TestStacheThreeHopChargeFormula covers the three-hop miss: the home
// forwards the request to a dirty remote owner.
func TestStacheThreeHopChargeFormula(t *testing.T) {
	// P=4, 32 floats = 4 blocks: block i homed at node i.
	m, v, c := netdiffMachine(t, 4, 32, cstar.Copying)
	bs := int64(32)
	m.Run(func(n *tempest.Node) {
		if n.ID == 1 {
			v.Set(n, 16, 2.0) // block 2: node 1 becomes dirty exclusive owner
		}
		n.Barrier()
		if n.ID == 0 {
			_ = v.Get(n, 17) // three-hop read: home 2, owner 1
		}
	})
	// Phase A: node 1's write miss dominates the barrier maximum.
	maxA := c.RemoteRoundTrip + bs*c.PerByte + c.CacheHit
	want := maxA + c.Barrier + // inherited at the barrier
		(c.RemoteRoundTrip + bs*c.PerByte + c.ThirdHop + c.CacheHit)
	if got := m.Nodes[0].Clock(); got != want {
		t.Errorf("actor clock = %d, want %d", got, want)
	}
	if got := m.MaxClock(); got != want {
		t.Errorf("MaxClock = %d, want %d (final actor must dominate)", got, want)
	}
}

// TestStacheInvalidationChargeFormula covers write-fault invalidation of
// outstanding read-only copies.
func TestStacheInvalidationChargeFormula(t *testing.T) {
	m, v, c := netdiffMachine(t, 4, 32, cstar.Copying)
	bs := int64(32)
	m.Run(func(n *tempest.Node) {
		if n.ID == 1 || n.ID == 2 {
			_ = v.Get(n, 16) // two read-only sharers of block 2
		}
		n.Barrier()
		if n.ID == 0 {
			v.Set(n, 16, 3.0) // invalidates both sharers, then misses
		}
	})
	maxA := c.RemoteRoundTrip + bs*c.PerByte + c.CacheHit
	want := maxA + c.Barrier +
		(2*c.InvalidatePerCopy + c.RemoteRoundTrip + bs*c.PerByte + c.CacheHit)
	if got := m.Nodes[0].Clock(); got != want {
		t.Errorf("actor clock = %d, want %d", got, want)
	}
	if tc := m.TotalCounters(); tc.InvalidationsSent != 2 {
		t.Errorf("InvalidationsSent = %d, want 2", tc.InvalidationsSent)
	}
}

// TestLCMChargeFormulas covers the LCM mark (fetch and upgrade flavors),
// flush, and the mcc local clean-copy re-mark, as cost-model formulas.
func TestLCMChargeFormulas(t *testing.T) {
	for _, sys := range []cstar.System{cstar.LCMmcc, cstar.LCMscc} {
		// P=2, 32 floats = 4 blocks: 0,1 homed at node 0; 2,3 at node 1.
		m, v, c := netdiffMachine(t, 2, 32, sys)
		bs := int64(32)
		m.Run(func(n *tempest.Node) {
			if n.ID != 0 {
				return
			}
			_ = v.Get(n, 16)  // remote read miss on block 2
			v.Set(n, 16, 1.0) // mark by upgrade (read-only copy in place)
			v.Set(n, 24, 2.0) // mark by fetch on block 3
			n.FlushCopies()   // two remote one-way flushes, 1 word each
			v.Set(n, 16, 3.0) // re-mark: mcc local clean copy / scc re-fetch
			_ = v.Get(n, 17)  // private hit
		})
		miss := c.RemoteRoundTrip + bs*c.PerByte
		flush := c.FlushPerBlock + 1*4*c.PerByte // one modified float32
		want := (miss + c.CacheHit) +            // read miss
			(c.Upgrade + c.CacheHit) + // mark upgrade
			(miss + c.CacheHit) + // mark fetch
			2*flush + // FlushCopies
			c.CacheHit // final private hit
		remark := c.MarkLocal // mcc: revert to the local clean copy
		homeSteal := 3*c.HomeOccupancy + 2*(c.FlushOccupancy+1*c.MergePerWord)
		if sys == cstar.LCMscc {
			remark = miss // scc: the flush dropped the copy; full re-fetch
			homeSteal += c.HomeOccupancy
		}
		want += remark + c.CacheHit
		if got := m.Nodes[0].Clock(); got != want {
			t.Errorf("%v: actor clock = %d, want %d", sys, got, want)
		}
		if got := m.Nodes[1].Clock(); got != homeSteal {
			t.Errorf("%v: home clock = %d, want %d", sys, got, homeSteal)
		}
		tc := m.TotalCounters()
		if tc.Flushes != 2 || tc.WordsFlushed != 2 || tc.Marks != 3 {
			t.Errorf("%v: counters: %+v", sys, tc)
		}
	}
}

// TestLCMFatTreePostedMissFormula: one poster, three read misses to one home
// on a fat tree.  Each exchange is priced when its effect is applied, at the
// poster's clock as the schedule has it — the local clock at the fault plus
// the prices of the posts before it — so the three never meet in a channel
// and the poster's clock is the uncontended NI/hop/serialization sum,
// posted or on the spot.  (Priced at the local clock alone, the second
// request would leave before the first reply arrived and queue behind it.)
func TestLCMFatTreePostedMissFormula(t *testing.T) {
	const H, bs = net.DefaultHeaderBytes, 32
	oneWay := func(bytes int64) int64 { // node 1 and node 0 share a switch: two links
		return 2*net.DefaultNICycles + 2*(net.DefaultHopCycles+bytes*net.DefaultCyclesPerByte)
	}
	for _, onTheSpot := range []bool{false, true} {
		// P=4, 128 floats = 16 blocks: blocks 0-3 homed at node 0.
		m, v, c := netdiffMachine(t, 4, 128, cstar.LCMscc)
		m.SetNetwork(net.NewFatTree(net.Config{}, m.P))
		if onTheSpot {
			m.SchedHook = func(*sched.Scheduler) {}
		}
		m.Run(func(n *tempest.Node) {
			if n.ID == 1 {
				_ = v.Get(n, 0) + v.Get(n, 8) + v.Get(n, 16)
			}
		})
		want := 3 * (oneWay(H) + oneWay(H+bs) + c.CacheHit)
		if got := m.Nodes[1].Clock(); got != want {
			t.Errorf("onTheSpot=%v: poster clock = %d, want %d", onTheSpot, got, want)
		}
		if got, want := m.Nodes[0].Clock(), 3*c.HomeOccupancy; got != want {
			t.Errorf("onTheSpot=%v: home clock = %d, want %d", onTheSpot, got, want)
		}
		if q := m.Nodes[1].Ctr.Net.QueueCycles; q != 0 {
			t.Errorf("onTheSpot=%v: the poster's own exchanges queued for %d cycles", onTheSpot, q)
		}
		if got := m.Sched().Stats().Applies; (got == 3) == onTheSpot {
			t.Errorf("onTheSpot=%v: %d effects were posted", onTheSpot, got)
		}
	}
}

// TestNetworkModelDifferential runs the Stencil benchmark under the
// default network (nil Config.Net), an explicit uniform model, and the
// fat tree.  The first two must agree on every counter (the explicit
// construction path is the same model); the fat tree must see the same
// message stream — protocols decide what to send from access order, not
// prices — while pricing it differently.
//
// The default and explicit-uniform runs replay the identical deterministic
// schedule, so they are compared bit-exactly for every system.  The fat
// tree prices messages differently, which shifts virtual times and hence
// the deterministic schedule itself; LCM's message stream is still fixed
// by each node's own access stream (no mid-phase revocation), but
// Copying's fault count legitimately depends on invalidation order, so the
// fattree-vs-uniform message comparison exempts Copying.
func TestNetworkModelDifferential(t *testing.T) {
	spec := StencilSpec{N: 32, Iters: 3}
	base := Config{P: 8, Verify: true}
	for _, sys := range []cstar.System{cstar.Copying, cstar.LCMscc, cstar.LCMmcc} {
		rDefault := RunStencil(sys, spec, base)
		cfgU := base
		cfgU.Net = &net.Config{Model: "uniform"}
		rUniform := RunStencil(sys, spec, cfgU)
		cfgF := base
		cfgF.Net = &net.Config{Model: "fattree"}
		rFattree := RunStencil(sys, spec, cfgF)

		for _, r := range []Result{rDefault, rUniform, rFattree} {
			if r.Err != nil {
				t.Fatalf("%v/%s: run failed: %v", sys, r.Net, r.Err)
			}
		}
		if rDefault.Net != "uniform" || rUniform.Net != "uniform" || rFattree.Net != "fattree" {
			t.Fatalf("%v: model names %q %q %q", sys, rDefault.Net, rUniform.Net, rFattree.Net)
		}
		if rDefault.C != rUniform.C {
			t.Errorf("%v: explicit uniform config drifted from default:\n got  %+v\n want %+v",
				sys, rUniform.C, rDefault.C)
		}
		if rDefault.Cycles != rUniform.Cycles {
			t.Errorf("%v: explicit uniform cycles drifted from default: %d vs %d",
				sys, rUniform.Cycles, rDefault.Cycles)
		}
		if rDefault.Links != (net.LinkStats{}) {
			t.Errorf("%v: uniform model reported links: %+v", sys, rDefault.Links)
		}
		if sys != cstar.Copying &&
			(rFattree.C.Net.Msgs != rDefault.C.Net.Msgs || rFattree.C.Net.Bytes != rDefault.C.Net.Bytes) {
			t.Errorf("%v: fattree message stream differs from uniform:\n got  %+v\n want %+v",
				sys, rFattree.C.Net, rDefault.C.Net)
		}
		if rFattree.C.Net.TotalMsgs() == 0 {
			t.Errorf("%v: fattree counted no messages", sys)
		}
		if rFattree.Links.MaxBusy == 0 || rFattree.Links.Links == 0 {
			t.Errorf("%v: fattree saw no link occupancy: %+v", sys, rFattree.Links)
		}
	}
}

// TestNetworkBadModelSurfaces checks a bad network model is recorded as
// a configuration error and surfaces at Freeze like other bad user
// input (lcmbench validates the -net flag before this point; the
// recorded error is the library-level backstop).
func TestNetworkBadModelSurfaces(t *testing.T) {
	defer func() {
		err, ok := recover().(error)
		if !ok || err == nil {
			t.Fatal("bad network model did not surface a configuration error")
		}
	}()
	cfg := Config{P: 2, Net: &net.Config{Model: "hypercube"}}
	RunStencil(cstar.Copying, StencilSpec{N: 16, Iters: 3}, cfg)
}
