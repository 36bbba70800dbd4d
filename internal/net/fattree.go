package net

import "lcm/internal/cost"

// FatTree routes messages over a CM-5-style 4-ary fat tree in virtual
// time.  Processing nodes are the leaves; a message from src to dst
// climbs to their least common ancestor and descends, crossing two
// links per tree level.  Each directed channel and each node's network
// interface is a server with a free-at timestamp: a message arriving
// while the server is busy queues, and the wait is charged to the
// sender as QueueCycles.  Channel multiplicity doubles per level up to
// four (the CM-5's thinned upper tree), with the channel within a
// bundle chosen by a deterministic hash of the endpoints.
//
// Queueing makes every charge depend on the order messages arrive in;
// the scheduler token fixes that order, so cycle totals replay bit for bit.
type FatTree struct {
	cfg    Config
	cost   cost.Model
	p      int
	levels int

	chs []channel
	// levelOff[ℓ-1] is the index of level ℓ's first channel; channels
	// 0..2p-1 are the per-node out/in network interfaces.
	levelOff []int
	// levelMul[ℓ-1] is the channel multiplicity at level ℓ.
	levelMul []int
}

type channel struct {
	freeAt int64
	busy   int64
}

// NewFatTree builds a fat tree over p leaves.  cfg fields at zero take
// the package defaults; the cost model supplies the barrier charge kept
// on the control network.
func NewFatTree(cfg Config, p int, c cost.Model) *FatTree {
	cfg = cfg.withDefaults()
	if p < 1 {
		p = 1
	}
	levels := 0
	for span := 1; span < p; span *= 4 {
		levels++
	}
	ft := &FatTree{cfg: cfg, cost: c, p: p, levels: levels}
	n := 2 * p // out/in NI per node
	for l := 1; l <= levels; l++ {
		ft.levelOff = append(ft.levelOff, n)
		mul := 1 << (l - 1)
		if mul > 4 {
			mul = 4
		}
		ft.levelMul = append(ft.levelMul, mul)
		children := ((p - 1) >> (2 * (l - 1))) + 1
		n += children * mul * 2 // up and down bundles per child subtree
	}
	ft.chs = make([]channel, n)
	return ft
}

// Name implements Network.
func (ft *FatTree) Name() string { return "fattree" }

func (ft *FatTree) niOut(node int) int { return 2 * node }
func (ft *FatTree) niIn(node int) int  { return 2*node + 1 }

// upChan returns the channel index for the up-link out of child subtree
// `child` at level l (1-based), bundle slot h.
func (ft *FatTree) upChan(l, child, h int) int {
	mul := ft.levelMul[l-1]
	return ft.levelOff[l-1] + child*mul*2 + h%mul
}

// downChan is the matching down-link into child subtree `child`.
func (ft *FatTree) downChan(l, child, h int) int {
	mul := ft.levelMul[l-1]
	return ft.levelOff[l-1] + child*mul*2 + mul + h%mul
}

// lca returns the tree level of src and dst's least common ancestor
// (0 if src == dst); a message crosses 2*lca links.
func (ft *FatTree) lca(src, dst int) int {
	l := 0
	for a, b := src, dst; a != b; a, b = a>>2, b>>2 {
		l++
	}
	return l
}

// Hops returns the link count of the src→dst route (NIs excluded).
func (ft *FatTree) Hops(src, dst int) int { return 2 * ft.lca(src, dst) }

// acquire serializes a message of the given service time through ch
// starting at t, returning the departure time and accumulating queueing
// into *queue.
func (ft *FatTree) acquire(ch int, t, service int64, queue *int64) int64 {
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

// route pushes one message of `bytes` total size from src to dst
// starting at now.  It returns the arrival time and queueing total.
func (ft *FatTree) route(src, dst int, bytes, now int64, queue *int64) int64 {
	h := src*31 + dst
	wire := ft.cfg.HopCycles + bytes*ft.cfg.CyclesPerByte
	t := ft.acquire(ft.niOut(src), now, ft.cfg.NICycles, queue)
	top := ft.lca(src, dst)
	for l := 1; l <= top; l++ {
		t = ft.acquire(ft.upChan(l, src>>(2*(l-1)), h), t, wire, queue)
	}
	for l := top; l >= 1; l-- {
		t = ft.acquire(ft.downChan(l, dst>>(2*(l-1)), h), t, wire, queue)
	}
	return ft.acquire(ft.niIn(dst), t, ft.cfg.NICycles, queue)
}

// RoundTrip routes the request and the data reply and charges the full
// blocking latency.
func (ft *FatTree) RoundTrip(src, dst int, payload int64, now int64, c *Counters) int64 {
	c.Msgs[MsgMissRequest]++
	c.Msgs[MsgDataReply]++
	c.Bytes += 2*ft.cfg.HeaderBytes + payload
	var q int64
	t := ft.route(src, dst, ft.cfg.HeaderBytes, now, &q)
	t = ft.route(dst, src, ft.cfg.HeaderBytes+payload, t, &q)
	c.QueueCycles += q
	return t - now
}

// Timeout routes the request and charges the would-be round trip under
// the flat model (the reply never comes; the requester waits out the
// timeout window, which the fault layer prices).
func (ft *FatTree) Timeout(src, dst int, now int64, c *Counters) int64 {
	c.Msgs[MsgMissRequest]++
	c.Bytes += ft.cfg.HeaderBytes
	var q int64
	t := ft.route(src, dst, ft.cfg.HeaderBytes, now, &q)
	c.QueueCycles += q
	return t - now
}

// Forward routes the home→owner forward leg of a three-hop miss.
func (ft *FatTree) Forward(src, dst int, now int64, c *Counters) int64 {
	c.Msgs[MsgForward]++
	c.Bytes += ft.cfg.HeaderBytes
	var q int64
	t := ft.route(src, dst, ft.cfg.HeaderBytes, now, &q)
	c.QueueCycles += q
	return t - now
}

// Upgrade routes a header-only round trip.
func (ft *FatTree) Upgrade(src, dst int, now int64, c *Counters) int64 {
	c.Msgs[MsgUpgrade] += 2
	c.Bytes += 2 * ft.cfg.HeaderBytes
	var q int64
	t := ft.route(src, dst, ft.cfg.HeaderBytes, now, &q)
	t = ft.route(dst, src, ft.cfg.HeaderBytes, t, &q)
	c.QueueCycles += q
	return t - now
}

// Invalidate routes one blocking invalidation (the writer must know the
// copy is dead before proceeding, so the full one-way latency is
// charged).
func (ft *FatTree) Invalidate(src, dst int, now int64, c *Counters) int64 {
	c.Msgs[MsgInvalidate]++
	c.Bytes += ft.cfg.HeaderBytes
	var q int64
	t := ft.route(src, dst, ft.cfg.HeaderBytes, now, &q)
	c.QueueCycles += q
	return t - now
}

// Flush is fire-and-forget: the sender pays only network-interface
// injection (plus any queueing for it), while the message's traversal
// still occupies channels against later traffic.
func (ft *FatTree) Flush(src, dst int, payload int64, now int64, c *Counters) int64 {
	c.Msgs[MsgFlush]++
	c.Bytes += ft.cfg.HeaderBytes + payload
	var inject, drift int64
	t := ft.acquire(ft.niOut(src), now, ft.cfg.NICycles, &inject)
	charge := t - now
	// The body of the message continues without the sender.
	h := src*31 + dst
	wire := ft.cfg.HopCycles + (ft.cfg.HeaderBytes+payload)*ft.cfg.CyclesPerByte
	top := ft.lca(src, dst)
	for l := 1; l <= top; l++ {
		t = ft.acquire(ft.upChan(l, src>>(2*(l-1)), h), t, wire, &drift)
	}
	for l := top; l >= 1; l-- {
		t = ft.acquire(ft.downChan(l, dst>>(2*(l-1)), h), t, wire, &drift)
	}
	ft.acquire(ft.niIn(dst), t, ft.cfg.NICycles, &drift)
	c.QueueCycles += inject
	return charge
}

// Barrier rides the dedicated control network: accounted, not charged.
func (ft *FatTree) Barrier(node int, c *Counters) {
	c.Msgs[MsgBarrier]++
	c.Bytes += ft.cfg.HeaderBytes
}

// OrderFree implements Network: a message queues behind whatever occupied
// its channels before it, so charges depend on send order and send time.
func (ft *FatTree) OrderFree() bool { return false }

// LinkStats implements Network.
func (ft *FatTree) LinkStats() LinkStats {
	ls := LinkStats{Links: len(ft.chs)}
	for i := range ft.chs {
		b := ft.chs[i].busy
		ls.TotalBusy += b
		if b > ls.MaxBusy {
			ls.MaxBusy = b
		}
	}
	return ls
}
