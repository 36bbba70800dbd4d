// Package net models the simulated machine's interconnect.
//
// The paper's CM-5 results are shaped by its fat-tree network: LCM wins
// because it moves fewer and cheaper messages than Stache plus explicit
// copying.  This package gives every protocol message an explicit route,
// latency, and link/NI occupancy so that traffic reduction can translate
// into the latency advantage the paper measures.
//
// A protocol exchange is a row of one class table (classes): the kinds it
// counts, whether a reply is routed, whether the sender waits for the
// traversal.  One Network type accounts every exchange in one place (Send)
// — messages, bytes and queueing cycles into the calling node's
// net.Counters, which internal/stats embeds per node — and, when the run's
// fault plan makes delivery unreliable, loses and re-sends it in one place
// (retransmit, reliable.go).  What a class costs is the topology's business,
// and there are two:
//
//   - uniform charges each class exactly the flat price of the cost.Model
//     it is built from.  It reproduces the pre-net simulator bit-for-bit
//     (counters and virtual cycles) and is the default.
//   - fatTree routes messages over a CM-5-style 4-ary fat tree with
//     per-hop latency, per-byte serialization, and per-channel and
//     per-NI queueing in virtual time.  Queueing makes it sensitive to
//     contention and to the interleaving; the deterministic scheduler
//     makes its totals replay bit-identically, but its different pricing
//     selects a different schedule than the uniform model's, so
//     order-dependent observables legitimately differ between the two.  It
//     is an analysis mode, not a goldens mode.
//
// A price may depend on when an exchange is sent and on what was sent before
// it, so every Send happens at its handler's position in the grant order: a
// handler that runs ahead of the scheduler token records the exchange and
// whoever applies its effect sends it (tempest.Node.Send).
package net

import (
	"fmt"

	"lcm/internal/cost"
)

// Kind classifies protocol messages for accounting.
type Kind int

const (
	// MsgMissRequest is a blocking block-fetch request to a home node.
	MsgMissRequest Kind = iota
	// MsgDataReply is a data-carrying reply to a miss request.
	MsgDataReply
	// MsgForward is a home-to-dirty-owner forward (three-hop miss).
	MsgForward
	// MsgUpgrade is a no-data permission upgrade request or ack.
	MsgUpgrade
	// MsgInvalidate is a copy-invalidation directive.
	MsgInvalidate
	// MsgFlush is a fire-and-forget modified-block writeback.
	MsgFlush
	// MsgBarrier is a barrier packet on the control network.
	MsgBarrier

	// NumKinds is the number of message kinds.
	NumKinds
)

var kindNames = [NumKinds]string{
	"miss_request", "data_reply", "forward", "upgrade",
	"invalidate", "flush", "barrier",
}

// String returns the snake_case kind name used in JSON/CSV output.
func (k Kind) String() string {
	if k < 0 || k >= NumKinds {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Counters is the per-node network accounting record.  Like the rest of
// stats.NodeCounters it is updated only by the owning node's goroutine.
type Counters struct {
	// Msgs counts messages this node injected, by kind.
	Msgs [NumKinds]int64
	// Bytes counts header plus payload bytes this node injected.
	Bytes int64
	// QueueCycles counts virtual cycles this node's messages spent
	// waiting for busy channels or network interfaces (always zero
	// under the uniform model).
	QueueCycles int64
	// Retransmits counts messages this node re-sent after a delivery
	// fault dropped them (lossy runs only; see reliable.go).
	Retransmits int64
	// RetransCycles counts the virtual cycles lost to those drops: the
	// timeout window plus backoff per retransmission.
	RetransCycles int64
	// DupDelivered counts duplicate copies the receiver's sequence
	// numbers discarded.
	DupDelivered int64
	// ReorderHeld counts messages held for resequencing at the receiver
	// because they overtook an earlier one.
	ReorderHeld int64
}

// Add accumulates o into c.
func (c *Counters) Add(o *Counters) {
	for k := range c.Msgs {
		c.Msgs[k] += o.Msgs[k]
	}
	c.Bytes += o.Bytes
	c.QueueCycles += o.QueueCycles
	c.Retransmits += o.Retransmits
	c.RetransCycles += o.RetransCycles
	c.DupDelivered += o.DupDelivered
	c.ReorderHeld += o.ReorderHeld
}

// TotalMsgs returns the message count summed over kinds.
func (c *Counters) TotalMsgs() int64 {
	var t int64
	for _, v := range c.Msgs {
		t += v
	}
	return t
}

// LinkStats summarizes network-side occupancy after a run.
type LinkStats struct {
	// Links is the number of directed channels (including NIs).
	Links int
	// MaxBusy is the busiest channel's cumulative busy cycles.
	MaxBusy int64
	// TotalBusy is busy cycles summed over channels.
	TotalBusy int64
}

// class is one row of the message-class table: everything that is the same
// about an exchange whichever topology prices it.  The payload rides the
// exchange's last leg (the reply when there is one).
type class struct {
	// req and reply are the kinds counted for the two legs; legs is 1 when
	// no reply is routed.
	req, reply Kind
	legs       int64
	// detached marks a fire-and-forget class: the sender waits for
	// injection only, but the message still occupies channels for
	// followers.
	detached bool
}

// Class names a row of the class table: one kind of protocol exchange.  A
// split handler records it on its tempest.Effect, so one byte.
type Class uint8

const (
	// ClassRoundTrip is a blocking request/response exchange with the payload
	// on the reply.
	ClassRoundTrip Class = iota
	// ClassTimeout is a request whose reply never arrived (fault injection):
	// the request is routed, the reply is not.
	ClassTimeout
	// ClassForward is the home-to-owner forward leg of a three-hop miss.
	ClassForward
	// ClassUpgrade is a no-data permission-upgrade round trip.
	ClassUpgrade
	// ClassInvalidate is one blocking invalidation of a remote copy: the
	// writer must know the copy is dead before proceeding.
	ClassInvalidate
	// ClassFlush is a fire-and-forget writeback.
	ClassFlush

	numClasses
)

// classes is the one place that says what each protocol exchange is; the
// uniform model's price array (uniform.go) and the table in PROTOCOLS.md
// ("Message classes") have a row for each.
var classes = [numClasses]class{
	ClassRoundTrip:  {req: MsgMissRequest, reply: MsgDataReply, legs: 2},
	ClassTimeout:    {req: MsgMissRequest, legs: 1},
	ClassForward:    {req: MsgForward, legs: 1},
	ClassUpgrade:    {req: MsgUpgrade, reply: MsgUpgrade, legs: 2},
	ClassInvalidate: {req: MsgInvalidate, legs: 1},
	ClassFlush:      {req: MsgFlush, legs: 1, detached: true},
}

// topology is what differs between interconnect models: the price of one
// exchange of a class.
type topology interface {
	name() string
	// price returns the cycles src waits for one exchange of class id
	// started at now, adding any time spent behind busy channels to *queue.
	price(id Class, src, dst int, payload, now int64, queue *int64) int64
	linkStats() LinkStats
}

// Network is the interconnect consulted by the protocol layers.  Each
// exchange method returns the virtual cycles to charge the calling node and
// records the message(s) into c.  now is the sender's virtual time, used by
// contention-aware topologies to resolve queueing.
//
// One segment of the grant order runs at a time (the scheduler token,
// DESIGN.md section 3a), so a Network needs no synchronisation of its own.
type Network struct {
	topo   topology
	header int64
	// lossy is the retransmission state of an unreliable network, nil on a
	// reliable one (see reliable.go).
	lossy *reliable
}

// Send runs one exchange of class id from src, started at now: it accounts
// the exchange into c and returns the virtual cycles it costs src.  On a
// lossy network the exchange draws its fate first (retransmit, reliable.go)
// and is priced once the retries are over.
// The timeout class is never classified: it prices an exchange already
// declared lost, and drawing it a fate would inject twice.
//
// The loss test lives here, not in a wrapper: a front that chooses between
// two seven-argument calls is past the inlining budget, and the reliable
// path — every remote miss — would pay a call for it.
func (nw *Network) Send(id Class, src, dst int, payload, now int64, c *Counters) int64 {
	var waste int64
	if nw.lossy != nil && id != ClassTimeout {
		waste = nw.retransmit(src, dst, now, c)
	}
	cl := &classes[id]
	c.Msgs[cl.req]++
	if cl.legs == 2 {
		c.Msgs[cl.reply]++
	}
	c.Bytes += cl.legs*nw.header + payload
	return waste + nw.topo.price(id, src, dst, payload, now+waste, &c.QueueCycles)
}

// Name identifies the model ("uniform" or "fattree").
func (nw *Network) Name() string { return nw.topo.name() }

// RoundTrip prices a blocking request/response exchange carrying payload
// data bytes on the reply.
func (nw *Network) RoundTrip(src, dst int, payload int64, now int64, c *Counters) int64 {
	return nw.Send(ClassRoundTrip, src, dst, payload, now, c)
}

// Timeout prices a request whose reply never arrived.
func (nw *Network) Timeout(src, dst int, now int64, c *Counters) int64 {
	return nw.Send(ClassTimeout, src, dst, 0, now, c)
}

// Forward prices the home-to-owner forward leg of a three-hop miss.
func (nw *Network) Forward(src, dst int, now int64, c *Counters) int64 {
	return nw.Send(ClassForward, src, dst, 0, now, c)
}

// Upgrade prices a no-data permission-upgrade round trip.
func (nw *Network) Upgrade(src, dst int, now int64, c *Counters) int64 {
	return nw.Send(ClassUpgrade, src, dst, 0, now, c)
}

// Invalidate prices one blocking invalidation of a remote copy.
func (nw *Network) Invalidate(src, dst int, now int64, c *Counters) int64 {
	return nw.Send(ClassInvalidate, src, dst, 0, now, c)
}

// Flush prices a fire-and-forget writeback of payload data bytes: the
// sender is charged injection only, but the message still occupies
// channels for followers.
func (nw *Network) Flush(src, dst int, payload int64, now int64, c *Counters) int64 {
	return nw.Send(ClassFlush, src, dst, payload, now, c)
}

// Barrier accounts one barrier packet.  Barriers ride the CM-5 control
// network, which stays reliable, so no data-network cycles are charged; the
// synchronization cost itself stays cost.Model.Barrier.
func (nw *Network) Barrier(node int, c *Counters) {
	c.Msgs[MsgBarrier]++
	c.Bytes += nw.header
}

// LinkStats reports occupancy after the machine quiesces.
func (nw *Network) LinkStats() LinkStats { return nw.topo.linkStats() }

// Config selects and parameterizes a network model.  The zero value
// means "uniform with default parameters".
type Config struct {
	// Model is "", "uniform", or "fattree".
	Model string
	// HopCycles is the fixed per-link switch latency (fattree only).
	HopCycles int64
	// NICycles is the network-interface inject/eject occupancy per
	// message end (fattree only).
	NICycles int64
	// CyclesPerByte is the per-link serialization rate; lower is more
	// link bandwidth (fattree only).
	CyclesPerByte int64
	// HeaderBytes is the per-message header size used for byte
	// accounting (both models) and serialization (fattree).
	HeaderBytes int64
}

// Defaults used when Config fields are zero.  Calibrated so that an
// uncontended fattree remote round trip lands in the same few-thousand
// cycle range as cost.Model.RemoteRoundTrip.
const (
	DefaultHopCycles     = 50
	DefaultNICycles      = 400
	DefaultCyclesPerByte = 8
	DefaultHeaderBytes   = 8
)

func (cfg Config) withDefaults() Config {
	if cfg.Model == "" {
		cfg.Model = "uniform"
	}
	if cfg.HopCycles == 0 {
		cfg.HopCycles = DefaultHopCycles
	}
	if cfg.NICycles == 0 {
		cfg.NICycles = DefaultNICycles
	}
	if cfg.CyclesPerByte == 0 {
		cfg.CyclesPerByte = DefaultCyclesPerByte
	}
	if cfg.HeaderBytes == 0 {
		cfg.HeaderBytes = DefaultHeaderBytes
	}
	return cfg
}

// New builds the Network selected by cfg for a p-node machine charged
// under cost model c.
func New(cfg Config, p int, c cost.Model) (*Network, error) {
	cfg = cfg.withDefaults()
	switch cfg.Model {
	case "uniform":
		return NewUniform(c, cfg.HeaderBytes), nil
	case "fattree":
		return NewFatTree(cfg, p), nil
	default:
		return nil, fmt.Errorf("net: unknown model %q (want uniform or fattree)", cfg.Model)
	}
}
