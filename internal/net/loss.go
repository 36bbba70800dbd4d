package net

import (
	"fmt"
)

// This file adds seeded delivery faults to the interconnect models: a
// message injected into a lossy network can be dropped, duplicated, or
// reordered.  The fate of each message is drawn from a per-sender
// splitmix64 stream (the same determinism discipline as internal/fault),
// so a given (LossConfig, send sequence) always injects the same faults
// regardless of host scheduling — under the deterministic scheduler the
// send sequence itself is reproducible, making every lossy run replay
// bit-identically.
//
// The models themselves stay fire-and-forget: Deliver only classifies
// the next message and tallies the injection.  Surviving a loss is the
// business of the sequence-numbered retransmission layer in
// internal/tempest, which charges the recovery (timeout window, backoff,
// re-send) through the same model so retransmissions show up in the
// message and queueing accounts.

// Delivery is the fate of one injected message.
type Delivery uint8

const (
	// Delivered: the message arrives intact, in order, exactly once.
	Delivered Delivery = iota
	// Dropped: the message is lost; the sender times out and must
	// retransmit.
	Dropped
	// Duplicated: the message arrives twice; the receiver's sequence
	// numbers discard the second copy.
	Duplicated
	// Reordered: the message arrives ahead of an earlier one; the
	// receiver holds it until the gap fills (virtual-time resequencing,
	// no extra latency charged).
	Reordered
)

func (d Delivery) String() string {
	switch d {
	case Delivered:
		return "delivered"
	case Dropped:
		return "dropped"
	case Duplicated:
		return "duplicated"
	case Reordered:
		return "reordered"
	default:
		return fmt.Sprintf("Delivery(%d)", uint8(d))
	}
}

// LossConfig describes one seeded delivery-fault campaign.  Probabilities
// are per mille (0..1000), drawn disjointly from a single roll per
// message: drop wins over duplicate wins over reorder.  The zero value
// loses nothing.
type LossConfig struct {
	// Seed selects the per-sender random streams.
	Seed uint64
	// DropPerMil is the probability (‰) that a message is lost in flight.
	DropPerMil int
	// DupPerMil is the probability (‰) that a message is delivered twice.
	DupPerMil int
	// ReorderPerMil is the probability (‰) that a message overtakes an
	// earlier one and must be held for resequencing at the receiver.
	ReorderPerMil int
}

// String renders the config for reports.
func (c LossConfig) String() string {
	return fmt.Sprintf("seed=%#x drop=%d‰ dup=%d‰ reorder=%d‰",
		c.Seed, c.DropPerMil, c.DupPerMil, c.ReorderPerMil)
}

// LossTally counts the delivery faults a Loss actually injected.  The
// recovery harness asserts the machine's retransmission counters against
// it, one for one.
type LossTally struct {
	Dropped    int64
	Duplicated int64
	Reordered  int64
}

// Add accumulates o into t.
func (t *LossTally) Add(o LossTally) {
	t.Dropped += o.Dropped
	t.Duplicated += o.Duplicated
	t.Reordered += o.Reordered
}

// Total returns the total number of injected delivery faults.
func (t LossTally) Total() int64 { return t.Dropped + t.Duplicated + t.Reordered }

// String renders the tally for reports.
func (t LossTally) String() string {
	return fmt.Sprintf("dropped=%d duplicated=%d reordered=%d", t.Dropped, t.Duplicated, t.Reordered)
}

// Loss is the seeded delivery-fault state of a lossy run.  The network
// models price messages and never consult it; the retransmission layer in
// internal/tempest draws each message's fate (Classify) and then prices the
// consequences through the model.  The per-sender streams keep the injected
// pattern a pure function of each sender's send sequence, which the
// scheduler fixes.
type Loss struct {
	cfg LossConfig

	streams []uint64
	tallies []LossTally
}

// NewLoss creates a loss model for p sending nodes.
func NewLoss(cfg LossConfig, p int) *Loss {
	l := &Loss{cfg: cfg, streams: make([]uint64, p), tallies: make([]LossTally, p)}
	for i := range l.streams {
		// Decorrelate sender streams the same way internal/fault does.
		l.streams[i] = lossMix64(cfg.Seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15))
	}
	return l
}

// Config returns the loss model's configuration.
func (l *Loss) Config() LossConfig { return l.cfg }

// Classify draws the fate of src's next injected message, tallying any
// injected fault.
func (l *Loss) Classify(src int) Delivery {
	c := &l.cfg
	if c.DropPerMil <= 0 && c.DupPerMil <= 0 && c.ReorderPerMil <= 0 {
		return Delivered
	}
	l.streams[src] += 0x9e3779b97f4a7c15
	v := lossMix64(l.streams[src]) % 1000
	t := &l.tallies[src]
	switch {
	case v < uint64(c.DropPerMil):
		t.Dropped++
		return Dropped
	case v < uint64(c.DropPerMil+c.DupPerMil):
		t.Duplicated++
		return Duplicated
	case v < uint64(c.DropPerMil+c.DupPerMil+c.ReorderPerMil):
		t.Reordered++
		return Reordered
	default:
		return Delivered
	}
}

// Tally sums the injected-fault tallies across senders.  Call only while
// the machine is quiescent.
func (l *Loss) Tally() LossTally {
	var t LossTally
	for i := range l.tallies {
		t.Add(l.tallies[i])
	}
	return t
}

// SenderTally returns sender i's injected-fault tally (quiescent only).
func (l *Loss) SenderTally(i int) LossTally {
	return l.tallies[i]
}

// lossMix64 is the splitmix64 output function (kept local so net does not
// depend on internal/fault).
func lossMix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
