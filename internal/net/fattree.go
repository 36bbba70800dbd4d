package net

// fatTree routes messages over a CM-5-style 4-ary fat tree in virtual
// time.  Processing nodes are the leaves; a message from src to dst
// climbs to their least common ancestor and descends, crossing two
// links per tree level.  Each directed channel and each node's network
// interface is a server with a free-at timestamp: a message arriving
// while the server is busy queues, and the wait is charged to the
// sender as QueueCycles.  Channel multiplicity doubles per level up to
// four (the CM-5's thinned upper tree), with the channel within a
// bundle chosen by a deterministic hash of the endpoints.
//
// Queueing makes every charge depend on the order messages arrive in.  That
// order is the order handlers' effects are applied in — the grant order,
// whether a handler yielded for its grant or posted and ran ahead of it — so
// cycle totals replay bit for bit.
type fatTree struct {
	cfg Config

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
// the package defaults.
func NewFatTree(cfg Config, p int) *Network {
	cfg = cfg.withDefaults()
	if p < 1 {
		p = 1
	}
	ft := &fatTree{cfg: cfg}
	n := 2 * p // out/in NI per node
	for l, span := 1, 1; span < p; l, span = l+1, span*4 {
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
	return &Network{header: cfg.HeaderBytes, topo: ft}
}

func (ft *fatTree) name() string { return "fattree" }

func (ft *fatTree) niOut(node int) int { return 2 * node }
func (ft *fatTree) niIn(node int) int  { return 2*node + 1 }

// upChan returns the channel index for the up-link out of child subtree
// `child` at level l (1-based), bundle slot h mod the multiplicity.  A
// multiplicity is 1, 2 or 4 and h is never negative, so the slot is a mask,
// not a divide.
func (ft *fatTree) upChan(l, child, h int) int {
	mul := ft.levelMul[l-1]
	return ft.levelOff[l-1] + child*mul*2 + h&(mul-1)
}

// downChan is the matching down-link into child subtree `child`.
func (ft *fatTree) downChan(l, child, h int) int {
	mul := ft.levelMul[l-1]
	return ft.levelOff[l-1] + child*mul*2 + mul + h&(mul-1)
}

// lca returns the tree level of src and dst's least common ancestor
// (0 if src == dst); a message crosses 2*lca links.
func (ft *fatTree) lca(src, dst int) int {
	l := 0
	for a, b := src, dst; a != b; a, b = a>>2, b>>2 {
		l++
	}
	return l
}

// hops returns the link count of the src→dst route (NIs excluded).
func (ft *fatTree) hops(src, dst int) int { return 2 * ft.lca(src, dst) }

// acquire serializes a message of the given service time through ch
// starting at t, returning the departure time and accumulating queueing
// into *queue.
func (ft *fatTree) acquire(ch int, t, service int64, queue *int64) int64 {
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

// traverse carries a message of `bytes` total size that left src's network
// interface at t up the tree, down again and through dst's interface.  It
// returns the arrival time, accumulating queueing into *queue.
func (ft *fatTree) traverse(src, dst int, bytes, t int64, queue *int64) int64 {
	h := src*31 + dst
	wire := ft.cfg.HopCycles + bytes*ft.cfg.CyclesPerByte
	top := ft.lca(src, dst)
	for l := 1; l <= top; l++ {
		t = ft.acquire(ft.upChan(l, src>>(2*(l-1)), h), t, wire, queue)
	}
	for l := top; l >= 1; l-- {
		t = ft.acquire(ft.downChan(l, dst>>(2*(l-1)), h), t, wire, queue)
	}
	return ft.acquire(ft.niIn(dst), t, ft.cfg.NICycles, queue)
}

// price routes the request leg and, for a class with one, the reply, and
// charges the full blocking latency.  A detached class charges its sender
// network-interface injection only (plus any queueing for it); the body of
// the message continues without the sender and still occupies channels
// against later traffic.
func (ft *fatTree) price(id Class, src, dst int, payload, now int64, queue *int64) int64 {
	cl := &classes[id]
	// The payload rides the exchange's last leg.
	reqBytes, replyBytes := ft.cfg.HeaderBytes, ft.cfg.HeaderBytes+payload
	if cl.legs == 1 {
		reqBytes = replyBytes
	}
	t := ft.acquire(ft.niOut(src), now, ft.cfg.NICycles, queue)
	if cl.detached {
		var drift int64
		ft.traverse(src, dst, reqBytes, t, &drift)
		return t - now
	}
	t = ft.traverse(src, dst, reqBytes, t, queue)
	if cl.legs == 2 {
		t = ft.acquire(ft.niOut(dst), t, ft.cfg.NICycles, queue)
		t = ft.traverse(dst, src, replyBytes, t, queue)
	}
	return t - now
}

func (ft *fatTree) linkStats() LinkStats {
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
