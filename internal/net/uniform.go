package net

import "lcm/internal/cost"

// Uniform prices every message class exactly as the flat cost.Model did
// before the network existed: fixed latency per class, a per-byte term
// on data transfers, no topology, no queueing.  It exists so that the
// default simulator configuration is bit-identical — in counters and in
// virtual cycles — to the pre-net golden results.
type Uniform struct {
	c      cost.Model
	header int64
}

// NewUniform builds the uniform model over cost model c with the given
// per-message header size (bytes, accounting only).
func NewUniform(c cost.Model, headerBytes int64) *Uniform {
	if headerBytes == 0 {
		headerBytes = DefaultHeaderBytes
	}
	return &Uniform{c: c, header: headerBytes}
}

// Name implements Network.
func (u *Uniform) Name() string { return "uniform" }

// RoundTrip charges the legacy RemoteRoundTrip plus the bandwidth term.
func (u *Uniform) RoundTrip(src, dst int, payload int64, now int64, c *Counters) int64 {
	c.Msgs[MsgMissRequest]++
	c.Msgs[MsgDataReply]++
	c.Bytes += 2*u.header + payload
	return u.c.RemoteRoundTrip + payload*u.c.PerByte
}

// Timeout charges a full round trip for the lost exchange, as the flat
// model's fault path did.
func (u *Uniform) Timeout(src, dst int, now int64, c *Counters) int64 {
	c.Msgs[MsgMissRequest]++
	c.Bytes += u.header
	return u.c.RemoteRoundTrip
}

// Forward charges the legacy third-hop increment.
func (u *Uniform) Forward(src, dst int, now int64, c *Counters) int64 {
	c.Msgs[MsgForward]++
	c.Bytes += u.header
	return u.c.ThirdHop
}

// Upgrade charges the legacy no-data upgrade round trip.
func (u *Uniform) Upgrade(src, dst int, now int64, c *Counters) int64 {
	c.Msgs[MsgUpgrade] += 2
	c.Bytes += 2 * u.header
	return u.c.Upgrade
}

// Invalidate charges the legacy per-copy invalidation price.
func (u *Uniform) Invalidate(src, dst int, now int64, c *Counters) int64 {
	c.Msgs[MsgInvalidate]++
	c.Bytes += u.header
	return u.c.InvalidatePerCopy
}

// Flush charges the legacy per-block flush price plus bandwidth.
func (u *Uniform) Flush(src, dst int, payload int64, now int64, c *Counters) int64 {
	c.Msgs[MsgFlush]++
	c.Bytes += u.header + payload
	return u.c.FlushPerBlock + payload*u.c.PerByte
}

// Barrier accounts the control-network packet; the barrier's cycle cost
// is charged by the barrier itself, exactly as before.
func (u *Uniform) Barrier(node int, c *Counters) {
	c.Msgs[MsgBarrier]++
	c.Bytes += u.header
}

// OrderFree implements Network: every charge above is a constant of the
// message class plus a payload term.
func (u *Uniform) OrderFree() bool { return true }

// LinkStats reports nothing: the uniform model has no links.
func (u *Uniform) LinkStats() LinkStats { return LinkStats{} }
