package net

import "math/bits"

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
//
// The route walk is max-plus arithmetic: a hop starts at the later of the
// message's arrival and the channel's free-at time, a max rather than a
// branch, and an exchange's queueing reaches the sender's counter once.
type fatTree struct {
	cfg Config

	// chs are the servers: 2n and 2n+1 are node n's out and in network
	// interfaces, and each level's bundles follow.
	chs []channel
	// levels[ℓ-1] places level ℓ: the up bundle out of child subtree c
	// starts at channel first + 2c(mask+1), the down bundle into it mask+1
	// later, and a bundle's multiplicity mask+1 is 1, 2 or 4, so the
	// endpoint hash picks a channel by masking.
	levels [maxLevels]level
}

// maxLevels bounds the tree's height: 4^maxLevels leaves, four times the
// largest machine a tuple may describe (16 384, internal/harness).
const maxLevels = 8

type level struct{ first, mask int }

type channel struct {
	freeAt int64
	busy   int64
}

// acquire serializes a message of the given service time through c from t:
// it starts once both are free, and acquire returns when it leaves.
func (c *channel) acquire(t, service int64) int64 {
	c.freeAt = max(t, c.freeAt) + service
	c.busy += service
	return c.freeAt
}

// NewFatTree builds a fat tree over p leaves, at most 4^maxLevels.  cfg
// fields at zero take the package defaults.
func NewFatTree(cfg Config, p int) *Network {
	cfg = cfg.withDefaults()
	ft := &fatTree{cfg: cfg}
	n := 2 * max(p, 1) // out/in NI per node
	for l := 0; 1<<(2*l) < p; l++ {
		mul := 1 << min(l, 2)
		ft.levels[l] = level{first: n, mask: mul - 1}
		n += ((p-1)>>(2*l) + 1) * mul * 2 // up and down bundles per child subtree
	}
	ft.chs = make([]channel, n)
	return &Network{header: cfg.HeaderBytes, topo: ft}
}

func (ft *fatTree) name() string { return "fattree" }

// traverse carries a message of `bytes` total size that left src's network
// interface at t up to level top, src and dst's least common ancestor, down
// again and through dst's interface, and returns the arrival time.
func (ft *fatTree) traverse(src, dst, top int, bytes, t int64) int64 {
	chs := ft.chs
	h := src*31 + dst
	wire := ft.cfg.HopCycles + bytes*ft.cfg.CyclesPerByte
	// Climbing, note the channels of the way down.
	var down [maxLevels]int
	a, b := src, dst
	for l, lv := range ft.levels[:top] {
		at, stride := lv.first+h&lv.mask, 2*lv.mask+2
		t = chs[at+a*stride].acquire(t, wire)
		down[l] = at + b*stride + lv.mask + 1
		a, b = a>>2, b>>2
	}
	for l := top - 1; l >= 0; l-- {
		t = chs[down[l]].acquire(t, wire)
	}
	return chs[2*dst+1].acquire(t, ft.cfg.NICycles)
}

// price routes the request leg and, for a class with one, the reply, and
// charges the full blocking latency.  A detached class charges its sender
// network-interface injection only (plus any queueing for it); the body of
// the message continues without the sender and still occupies channels
// against later traffic.
//
// A hop ends its service time after it starts, and starts when the previous
// one ended or later, so what an exchange waited in all is its latency less
// the service times of its hops: one subtraction, not one per hop.
func (ft *fatTree) price(id Class, src, dst int, payload, now int64, queue *int64) int64 {
	cl := &classes[id]
	// The payload rides the exchange's last leg.
	reqBytes, replyBytes := ft.cfg.HeaderBytes, ft.cfg.HeaderBytes+payload
	if cl.legs == 1 {
		reqBytes = replyBytes
	}
	ni := ft.cfg.NICycles
	top := (bits.Len(uint(src^dst)) + 1) / 2 // leaves under one level-ℓ switch differ in their 2ℓ low bits only
	t := ft.chs[2*src].acquire(now, ni)
	if cl.detached {
		ft.traverse(src, dst, top, reqBytes, t)
		*queue += t - now - ni
		return t - now
	}
	t = ft.traverse(src, dst, top, reqBytes, t)
	if cl.legs == 2 {
		t = ft.traverse(dst, src, top, replyBytes, ft.chs[2*dst].acquire(t, ni))
	}
	hops := int64(2 * top)
	service := cl.legs*(2*ni+hops*ft.cfg.HopCycles) + hops*ft.cfg.CyclesPerByte*(cl.legs*ft.cfg.HeaderBytes+payload)
	*queue += t - now - service
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
