package net

import "lcm/internal/cost"

// uniform prices every message class exactly as the flat cost.Model did
// before the network existed: fixed latency per class, a per-byte term on
// the payload, no topology, no queueing.  It exists so that the default
// simulator configuration is bit-identical — in counters and in virtual
// cycles — to the pre-net golden results.
type uniform struct {
	flat    [numClasses]int64
	perByte int64
}

// NewUniform builds the uniform model over cost model c with the given
// per-message header size (bytes, accounting only; 0 means the default).
func NewUniform(c cost.Model, headerBytes int64) *Network {
	if headerBytes == 0 {
		headerBytes = DefaultHeaderBytes
	}
	return &Network{header: headerBytes, topo: &uniform{perByte: c.PerByte, flat: [numClasses]int64{
		ClassRoundTrip:  c.RemoteRoundTrip,
		ClassTimeout:    c.RemoteRoundTrip, // the lost exchange costs its full window
		ClassForward:    c.ThirdHop,
		ClassUpgrade:    c.Upgrade,
		ClassInvalidate: c.InvalidatePerCopy,
		ClassFlush:      c.FlushPerBlock,
	}}}
}

func (u *uniform) name() string { return "uniform" }

func (u *uniform) price(id Class, src, dst int, payload, now int64, queue *int64) int64 {
	return u.flat[id] + payload*u.perByte
}

// linkStats reports nothing: the uniform model has no links.
func (u *uniform) linkStats() LinkStats { return LinkStats{} }
