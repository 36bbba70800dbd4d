// Package trace records protocol events in one ring buffer, in the order the
// machine ran them, for debugging and for tests that assert on event
// sequences.
//
// Tracing is off by default and costs one predictable branch when
// disabled.  When enabled, events go to a fixed-size ring, so tracing never
// allocates on the hot path.  A run is one sequence of steps (every node body
// is a coroutine of one goroutine, granted in virtual-time order), so one ring
// holds it in that order.  An event is recorded where its effect is applied
// and carries the virtual clock of the grant that ordered it, so a trace is
// the same event for event whether split handlers ran ahead of the token or
// yielded at every fault.
package trace

import (
	"fmt"
	"strings"
)

// Kind labels one protocol event.
type Kind uint8

// Event kinds.
const (
	None Kind = iota
	// ReadMiss: a load fault was serviced.
	ReadMiss
	// WriteMiss: a store fault was serviced with data.
	WriteMiss
	// Upgrade: a store fault was serviced without data.
	Upgrade
	// Mark: an LCM MarkModification (explicit or copy-on-write).
	Mark
	// Flush: a private-modified block returned home.
	Flush
	// Invalidate: a copy was revoked.
	Invalidate
	// Commit: a home committed a reconciled block.
	Commit
	// BarrierEvt: the node passed a global barrier.
	BarrierEvt
	// Conflict: a semantic violation was recorded.
	Conflict
)

// String returns the event kind's short name.
func (k Kind) String() string {
	switch k {
	case ReadMiss:
		return "read-miss"
	case WriteMiss:
		return "write-miss"
	case Upgrade:
		return "upgrade"
	case Mark:
		return "mark"
	case Flush:
		return "flush"
	case Invalidate:
		return "invalidate"
	case Commit:
		return "commit"
	case BarrierEvt:
		return "barrier"
	case Conflict:
		return "conflict"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one recorded protocol event.
type Event struct {
	Clock int64
	Node  int16
	Kind  Kind
	Block uint32
	// Arg is kind-specific: the peer node for Invalidate, the modified
	// word count for Flush/Commit, zero otherwise.
	Arg int32
}

// String renders an event for dumps.
func (e Event) String() string {
	return fmt.Sprintf("[%12d] n%-2d %-10s b%-6d arg=%d", e.Clock, e.Node, e.Kind, e.Block, e.Arg)
}

// Buffer is a machine's trace: one ring holding the most recent events.
type Buffer struct {
	ring []Event
	next int  // one past the newest event
	wrap bool // an event was overwritten
}

// New creates a Buffer that retains the last capacity events.
func New(capacity int) *Buffer {
	return &Buffer{ring: make([]Event, max(capacity, 1))}
}

// Record appends an event, overwriting the oldest when the ring is full.
func (b *Buffer) Record(node int, clock int64, kind Kind, block uint32, arg int32) {
	if b.next == len(b.ring) {
		b.next, b.wrap = 0, true
	}
	b.ring[b.next] = Event{Clock: clock, Node: int16(node), Kind: kind, Block: block, Arg: arg}
	b.next++
}

// Wrapped reports whether events were dropped to make room for newer ones.
func (b *Buffer) Wrapped() bool { return b.wrap }

// Reset empties the buffer, keeping its storage.
func (b *Buffer) Reset() { b.next, b.wrap = 0, false }

// Events returns the retained events in recording order.  Call only while
// the machine is quiescent.
func (b *Buffer) Events() []Event {
	if !b.wrap {
		return append([]Event(nil), b.ring[:b.next]...)
	}
	return append(append(make([]Event, 0, len(b.ring)), b.ring[b.next:]...), b.ring[:b.next]...)
}

// CountKind returns how many retained events have the given kind.
func (b *Buffer) CountKind(k Kind) int {
	n := len(b.ring)
	if !b.wrap {
		n = b.next
	}
	total := 0
	for _, e := range b.ring[:n] {
		if e.Kind == k {
			total++
		}
	}
	return total
}

// Dump renders the retained events in recording order, at most the last
// limit of them (0 = all).
func (b *Buffer) Dump(limit int) string {
	events := b.Events()
	if limit > 0 && len(events) > limit {
		events = events[len(events)-limit:]
	}
	var sb strings.Builder
	for _, e := range events {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
