package net

import (
	"math/rand/v2"
	"testing"
)

func newTestTree(p int) *Network {
	return NewFatTree(Config{Model: "fattree"}, p)
}

// linkLevels returns, for each level of ft's table, how many of its link
// channels have carried traffic: a fresh tree's route, read back from the
// channels it occupied.
func linkLevels(ft *fatTree) []int {
	var per []int
	for l := 0; l < maxLevels && ft.levels[l].first != 0; l++ {
		end := len(ft.chs)
		if l+1 < maxLevels && ft.levels[l+1].first != 0 {
			end = ft.levels[l+1].first
		}
		n := 0
		for _, c := range ft.chs[ft.levels[l].first:end] {
			if c.busy != 0 {
				n++
			}
		}
		per = append(per, n)
	}
	return per
}

// TestFatTreeHops checks LCA routing through the level table: siblings under
// one level-1 switch are 2 hops apart, and distance grows 2 hops per
// shared-prefix level, one up and one down channel at each level crossed.
func TestFatTreeHops(t *testing.T) {
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
		// Routes are symmetric in length.
		for _, pair := range [][2]int{{tc.src, tc.dst}, {tc.dst, tc.src}} {
			nw := newTestTree(32)
			var c Counters
			got := nw.Invalidate(pair[0], pair[1], 0, &c)
			want := 2*DefaultNICycles + int64(tc.hops)*(DefaultHopCycles+DefaultHeaderBytes*DefaultCyclesPerByte)
			if got != want {
				t.Errorf("Invalidate(%d,%d) = %d cycles, want %d (%d hops)", pair[0], pair[1], got, want, tc.hops)
			}
			per := linkLevels(nw.topo.(*fatTree))
			if len(per) != 3 {
				t.Fatalf("32 leaves built %d levels, want 3", len(per))
			}
			for l, n := range per {
				want := 0
				if l < tc.hops/2 { // a level the route crosses: one channel up, one down
					want = 2
				}
				if n != want {
					t.Errorf("Invalidate(%d,%d) occupied %d level-%d channels, want %d", pair[0], pair[1], n, l+1, want)
				}
			}
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

// TestFatTreeChannelMultiplicity checks the thinned-tree bundle layout in
// the level table: level 1 has one channel per direction, level 2 two,
// level 3+ four, each level's bundles follow the last's, and no level is
// built above the root.
func TestFatTreeChannelMultiplicity(t *testing.T) {
	ft := newTestTree(64)
	tree := ft.topo.(*fatTree)
	want := []level{
		// After 64 out/in NI pairs, level ℓ has an up and a down bundle per
		// subtree of 4^(ℓ-1) leaves.
		{first: 128, mask: 0},
		{first: 128 + 64*2*1, mask: 1},
		{first: 128 + 64*2*1 + 16*2*2, mask: 3},
	}
	for l, lv := range want {
		if tree.levels[l] != lv {
			t.Errorf("level %d = %+v, want %+v (multiplicity %d)", l+1, tree.levels[l], lv, lv.mask+1)
		}
	}
	for l := len(want); l < maxLevels; l++ {
		if tree.levels[l] != (level{}) {
			t.Errorf("level %d built above the root: %+v", l+1, tree.levels[l])
		}
	}
	if got, wantLinks := ft.LinkStats().Links, want[2].first+4*2*4; got != wantLinks {
		t.Errorf("links = %d, want %d", got, wantLinks)
	}
	// Disjoint pairs at level 1 use disjoint channels: no cross-queueing.
	var ca, cb Counters
	ft.Invalidate(0, 1, 0, &ca)
	ft.Invalidate(4, 5, 0, &cb)
	if ca.QueueCycles != 0 || cb.QueueCycles != 0 {
		t.Errorf("disjoint routes interfered: %d, %d", ca.QueueCycles, cb.QueueCycles)
	}
}

// TestFatTreeLevelTableHoldsLargestMachine builds the tree of the largest
// machine a tuple may describe (internal/harness maxP, 16 384 leaves) and
// checks that its height fits the fixed level table.  It runs nothing.
func TestFatTreeLevelTableHoldsLargestMachine(t *testing.T) {
	const largestP = 16384
	tree := newTestTree(largestP).topo.(*fatTree)
	height := 0
	for span := 1; span < largestP; span *= 4 {
		height++
	}
	if height > maxLevels {
		t.Fatalf("%d leaves need %d levels, the table holds %d", largestP, height, maxLevels)
	}
	for l := 0; l < maxLevels; l++ {
		if built := tree.levels[l].first != 0; built != (l < height) {
			t.Errorf("level %d built = %v, want %v", l+1, built, l < height)
		}
	}
	// The root level has four child subtrees of four-channel bundles.
	if got, want := len(tree.chs), tree.levels[height-1].first+4*2*4; got != want {
		t.Errorf("channels = %d, want %d", got, want)
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

// refTree is the fat tree's route walk as it was first written, kept as the
// reference FuzzFatTree holds fatTree to: per-level offset and multiplicity
// slices, the least common ancestor found by a loop, and a branch and a store
// into the sender's queue at every hop.
type refTree struct {
	cfg      Config
	chs      []channel
	levelOff []int
	levelMul []int
}

func newRefTree(cfg Config, p int) *Network {
	cfg = cfg.withDefaults()
	if p < 1 {
		p = 1
	}
	ft := &refTree{cfg: cfg}
	n := 2 * p
	for l, span := 1, 1; span < p; l, span = l+1, span*4 {
		ft.levelOff = append(ft.levelOff, n)
		mul := 1 << (l - 1)
		if mul > 4 {
			mul = 4
		}
		ft.levelMul = append(ft.levelMul, mul)
		children := ((p - 1) >> (2 * (l - 1))) + 1
		n += children * mul * 2
	}
	ft.chs = make([]channel, n)
	return &Network{header: cfg.HeaderBytes, topo: ft}
}

func (ft *refTree) name() string { return "fattree" }

func (ft *refTree) upChan(l, child, h int) int {
	mul := ft.levelMul[l-1]
	return ft.levelOff[l-1] + child*mul*2 + h&(mul-1)
}

func (ft *refTree) downChan(l, child, h int) int {
	mul := ft.levelMul[l-1]
	return ft.levelOff[l-1] + child*mul*2 + mul + h&(mul-1)
}

func (ft *refTree) lca(src, dst int) int {
	l := 0
	for a, b := src, dst; a != b; a, b = a>>2, b>>2 {
		l++
	}
	return l
}

func (ft *refTree) acquire(ch int, t, service int64, queue *int64) int64 {
	c := &ft.chs[ch]
	start := t
	if c.freeAt > start {
		*queue += c.freeAt - start
		start = c.freeAt
	}
	c.freeAt = start + service
	c.busy += service
	return start + service
}

func (ft *refTree) traverse(src, dst int, bytes, t int64, queue *int64) int64 {
	h := src*31 + dst
	wire := ft.cfg.HopCycles + bytes*ft.cfg.CyclesPerByte
	top := ft.lca(src, dst)
	for l := 1; l <= top; l++ {
		t = ft.acquire(ft.upChan(l, src>>(2*(l-1)), h), t, wire, queue)
	}
	for l := top; l >= 1; l-- {
		t = ft.acquire(ft.downChan(l, dst>>(2*(l-1)), h), t, wire, queue)
	}
	return ft.acquire(2*dst+1, t, ft.cfg.NICycles, queue)
}

func (ft *refTree) price(id Class, src, dst int, payload, now int64, queue *int64) int64 {
	cl := &classes[id]
	reqBytes, replyBytes := ft.cfg.HeaderBytes, ft.cfg.HeaderBytes+payload
	if cl.legs == 1 {
		reqBytes = replyBytes
	}
	t := ft.acquire(2*src, now, ft.cfg.NICycles, queue)
	if cl.detached {
		var drift int64
		ft.traverse(src, dst, reqBytes, t, &drift)
		return t - now
	}
	t = ft.traverse(src, dst, reqBytes, t, queue)
	if cl.legs == 2 {
		t = ft.acquire(2*dst, t, ft.cfg.NICycles, queue)
		t = ft.traverse(dst, src, replyBytes, t, queue)
	}
	return t - now
}

func (ft *refTree) linkStats() LinkStats { return (&fatTree{chs: ft.chs}).linkStats() }

// fuzzPs are the machine sizes FuzzFatTree draws from: degenerate trees,
// partial top levels, full ones, and one a leaf past a power of four.
var fuzzPs = [...]int{1, 2, 3, 5, 16, 32, 33, 64, 257}

// checkFatTree decodes ops into exchanges on a fatTree and a refTree built
// alike, and fails t unless every price, the accumulated Counters after every
// exchange and the final LinkStats agree.  sel picks the machine size
// (fuzzPs) and the link rate: CyclesPerByte is sel/len(fuzzPs) mod 33, 0
// being the default.  ops spells six bytes an exchange:
//
//	ops[0]    the class in the low 3 bits, mod numClasses; the payload is
//	          ops[0]>>3 × 8 bytes
//	ops[1:3]  src, little-endian mod P
//	ops[3:5]  dst, likewise
//	ops[5]    the cycles src's clock advances before it sends, × 8
//
// Each node keeps its own clock and adds each price it is charged, so
// senders' clocks interleave as a machine's do, and steps below a round
// trip queue.  It returns the fatTree's Counters.
func checkFatTree(t *testing.T, sel byte, ops []byte) Counters {
	p := fuzzPs[int(sel)%len(fuzzPs)]
	cfg := Config{Model: "fattree", CyclesPerByte: int64(int(sel)/len(fuzzPs)) % 33}
	got, want := NewFatTree(cfg, p), newRefTree(cfg, p)
	clk := make([]int64, p)
	var cg, cw Counters
	for i := 0; i+6 <= len(ops); i += 6 {
		id := Class((ops[i] & 7) % byte(numClasses))
		payload := int64(ops[i]>>3) * 8
		src := (int(ops[i+1]) | int(ops[i+2])<<8) % p
		dst := (int(ops[i+3]) | int(ops[i+4])<<8) % p
		clk[src] += int64(ops[i+5]) * 8
		pg := got.Send(id, src, dst, payload, clk[src], &cg)
		pw := want.Send(id, src, dst, payload, clk[src], &cw)
		if pg != pw || cg != cw {
			t.Fatalf("P=%d exchange %d (class %d, %d→%d, payload %d, now %d): price %d, counters %+v; reference %d, %+v",
				p, i/6, id, src, dst, payload, clk[src], pg, cg, pw, cw)
		}
		clk[src] += pg
	}
	if gl, wl := got.LinkStats(), want.LinkStats(); gl != wl {
		t.Fatalf("P=%d: link stats %+v, reference %+v", p, gl, wl)
	}
	return cg
}

// denseFatTreeSeed is FuzzFatTree's seed for machine size fuzzPs[i]: every
// class from every sender to random receivers, mostly with short steps, so a
// congested machine at the default link rate.
func denseFatTreeSeed(rng *rand.Rand, i int) []byte {
	var ops []byte
	for src := range fuzzPs[i] {
		for id := range numClasses {
			dst := rng.IntN(fuzzPs[i])
			ops = append(ops, byte(id)|byte(rng.IntN(32))<<3, byte(src), byte(src>>8), byte(dst), byte(dst>>8), byte(rng.IntN(16)))
		}
	}
	return ops
}

// FuzzFatTree holds the straight-line route walk to the reference walk
// (refTree) over generated exchange sequences.  Besides a dense seed per
// machine size, go test runs a few hundred inputs drawn from a fixed stream.
func FuzzFatTree(f *testing.F) {
	rng := rand.New(rand.NewPCG(51, 7))
	for i := range fuzzPs {
		f.Add(byte(i), denseFatTreeSeed(rng, i))
	}
	for range 300 {
		ops := make([]byte, 6*(1+rng.IntN(64)))
		for j := range ops {
			ops[j] = byte(rng.Uint32())
		}
		// Half the steps short enough to queue behind the last exchange.
		for j := 5; j < len(ops); j += 6 {
			if rng.IntN(2) == 0 {
				ops[j] &= 0x1f
			}
		}
		f.Add(byte(rng.Uint32()), ops)
	}
	f.Fuzz(func(t *testing.T, sel byte, ops []byte) { checkFatTree(t, sel, ops) })
}

// TestFatTreeSeedsQueue checks that the dense seeds reach what FuzzFatTree
// is for: on every machine size, every message kind is sent and, past one
// leaf, exchanges queue.
func TestFatTreeSeedsQueue(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 7))
	for i, p := range fuzzPs {
		c := checkFatTree(t, byte(i), denseFatTreeSeed(rng, i))
		for k := range MsgBarrier {
			if c.Msgs[k] == 0 {
				t.Errorf("P=%d: no %v sent", p, k)
			}
		}
		if p > 1 && c.QueueCycles == 0 {
			t.Errorf("P=%d: nothing queued", p)
		}
	}
}
