package net

import "testing"

func newTestTree(p int) *Network {
	return NewFatTree(Config{Model: "fattree"}, p)
}

// TestFatTreeHops checks LCA routing: siblings under one level-1 switch
// are 2 hops apart, and distance grows 2 hops per shared-prefix level.
func TestFatTreeHops(t *testing.T) {
	ft := newTestTree(32).topo.(*fatTree)
	cases := []struct{ src, dst, hops int }{
		{0, 0, 0},
		{0, 1, 2},   // same level-1 switch
		{4, 7, 2},   // same level-1 switch, second quad
		{0, 5, 4},   // same level-2 subtree
		{0, 15, 4},  // same level-2 subtree
		{0, 16, 6},  // crosses the root
		{0, 31, 6},  // opposite corners
		{17, 18, 2}, // locality is position-independent
	}
	for _, tc := range cases {
		if got := ft.hops(tc.src, tc.dst); got != tc.hops {
			t.Errorf("Hops(%d,%d) = %d, want %d", tc.src, tc.dst, got, tc.hops)
		}
		// Routes are symmetric in length.
		if got := ft.hops(tc.dst, tc.src); got != tc.hops {
			t.Errorf("Hops(%d,%d) = %d, want %d (symmetry)", tc.dst, tc.src, got, tc.hops)
		}
	}
}

// TestFatTreeUncontendedLatency pins the closed-form uncontended charge:
// NI inject + per-link wire time on each of 2·lca links + NI eject, per
// direction.
func TestFatTreeUncontendedLatency(t *testing.T) {
	ft := newTestTree(16)
	wire := func(bytes int64) int64 { return DefaultHopCycles + bytes*DefaultCyclesPerByte }
	oneWay := func(hops int, bytes int64) int64 {
		return 2*DefaultNICycles + int64(hops)*wire(bytes)
	}

	var c Counters
	got := ft.RoundTrip(0, 1, 32, 0, &c)
	want := oneWay(2, DefaultHeaderBytes) + oneWay(2, DefaultHeaderBytes+32)
	if got != want {
		t.Errorf("neighbor RoundTrip = %d, want %d", got, want)
	}
	if c.QueueCycles != 0 {
		t.Errorf("uncontended round trip queued %d cycles", c.QueueCycles)
	}

	// A far pair on a fresh tree pays more hops.
	ft2 := newTestTree(16)
	var c2 Counters
	far := ft2.RoundTrip(0, 15, 32, 0, &c2)
	wantFar := oneWay(4, DefaultHeaderBytes) + oneWay(4, DefaultHeaderBytes+32)
	if far != wantFar {
		t.Errorf("far RoundTrip = %d, want %d", far, wantFar)
	}
	if far <= got {
		t.Errorf("far trip (%d) not slower than near trip (%d)", far, got)
	}
}

// TestFatTreeQueueing drives two messages over the same route at the
// same virtual instant and checks the second queues for exactly the
// first's service time, link by link.
func TestFatTreeQueueing(t *testing.T) {
	ft := newTestTree(4)
	var c1, c2 Counters
	first := ft.Invalidate(0, 1, 1000, &c1)
	second := ft.Invalidate(0, 1, 1000, &c2)
	if c1.QueueCycles != 0 {
		t.Fatalf("first message queued %d cycles", c1.QueueCycles)
	}
	if c2.QueueCycles == 0 {
		t.Fatal("second message did not queue behind the first")
	}
	// The pipeline is store-and-forward with equal service times, so the
	// second message finishes exactly one bottleneck-service later.
	if second <= first {
		t.Errorf("second charge %d not above first %d", second, first)
	}
	// After the line drains, a later message sails through.
	var c3 Counters
	third := ft.Invalidate(0, 1, 1_000_000, &c3)
	if third != first || c3.QueueCycles != 0 {
		t.Errorf("drained message charged %d (queue %d), want %d (queue 0)", third, c3.QueueCycles, first)
	}
}

// TestFatTreeFlushFireAndForget checks the sender pays injection only,
// while the flush body still occupies the route against later traffic.
func TestFatTreeFlushFireAndForget(t *testing.T) {
	ft := newTestTree(4)
	var cf Counters
	charge := ft.Flush(0, 1, 32, 0, &cf)
	if charge != DefaultNICycles {
		t.Errorf("flush charged %d, want NI injection %d", charge, DefaultNICycles)
	}
	// A blocking message right behind it queues on the occupied links.
	var ci Counters
	ft.Invalidate(0, 1, 0, &ci)
	if ci.QueueCycles == 0 {
		t.Error("invalidate behind flush did not queue")
	}
}

// TestFatTreeChannelMultiplicity checks the thinned-tree bundle layout:
// level 1 has one channel per direction, level 2 two, level 3+ four.
func TestFatTreeChannelMultiplicity(t *testing.T) {
	ft := newTestTree(64)
	want := []int{1, 2, 4}
	levelMul := ft.topo.(*fatTree).levelMul
	if len(levelMul) != len(want) {
		t.Fatalf("levels = %d, want %d", len(levelMul), len(want))
	}
	for i, m := range want {
		if levelMul[i] != m {
			t.Errorf("level %d multiplicity = %d, want %d", i+1, levelMul[i], m)
		}
	}
	// Disjoint pairs at level 1 use disjoint channels: no cross-queueing.
	var ca, cb Counters
	ft.Invalidate(0, 1, 0, &ca)
	ft.Invalidate(4, 5, 0, &cb)
	if ca.QueueCycles != 0 || cb.QueueCycles != 0 {
		t.Errorf("disjoint routes interfered: %d, %d", ca.QueueCycles, cb.QueueCycles)
	}
}

// TestFatTreeLinkStats checks occupancy aggregation.
func TestFatTreeLinkStats(t *testing.T) {
	ft := newTestTree(8)
	if ls := ft.LinkStats(); ls.MaxBusy != 0 || ls.TotalBusy != 0 || ls.Links == 0 {
		t.Fatalf("fresh tree stats: %+v", ls)
	}
	var c Counters
	ft.RoundTrip(0, 5, 64, 0, &c)
	ls := ft.LinkStats()
	if ls.MaxBusy == 0 || ls.TotalBusy < ls.MaxBusy {
		t.Errorf("post-traffic stats: %+v", ls)
	}
}

// TestFatTreeBandwidthSensitivity checks that lowering link bandwidth
// (more cycles per byte) raises data-carrying charges.
func TestFatTreeBandwidthSensitivity(t *testing.T) {
	fast := NewFatTree(Config{CyclesPerByte: 2}, 16)
	slow := NewFatTree(Config{CyclesPerByte: 32}, 16)
	var cf, cs Counters
	f := fast.RoundTrip(0, 9, 128, 0, &cf)
	s := slow.RoundTrip(0, 9, 128, 0, &cs)
	if s <= f {
		t.Errorf("slow link charge %d not above fast link charge %d", s, f)
	}
}

func TestFatTreeSingleNode(t *testing.T) {
	ft := newTestTree(1)
	var c Counters
	// Degenerate but must not panic: route collapses to the two NIs.
	if got := ft.RoundTrip(0, 0, 8, 0, &c); got <= 0 {
		t.Errorf("self round trip charged %d", got)
	}
}
