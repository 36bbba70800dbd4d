package trace

import (
	"strings"
	"testing"
)

func TestRecordAndEvents(t *testing.T) {
	b := New(4)
	b.Record(0, 10, ReadMiss, 7, 0)
	b.Record(0, 20, Mark, 7, 0)
	b.Record(1, 15, Flush, 9, 3)
	ev := b.Events()
	if len(ev) != 3 || ev[0].Kind != ReadMiss || ev[1].Kind != Mark || ev[2].Kind != Flush {
		t.Fatalf("events %v", ev)
	}
	if ev[0].Clock != 10 || ev[1].Block != 7 || ev[2].Node != 1 || ev[2].Arg != 3 {
		t.Fatalf("event fields %v", ev)
	}
	if b.Wrapped() {
		t.Fatal("a ring with room to spare reports a wrap")
	}
}

// Events come back in the order they were recorded, which is the order the
// machine ran them: no sort by clock or by node.
func TestEventsInExecutionOrder(t *testing.T) {
	b := New(8)
	b.Record(2, 30, Commit, 1, 0)
	b.Record(0, 10, ReadMiss, 1, 0)
	b.Record(1, 10, WriteMiss, 1, 0)
	b.Record(0, 10, Mark, 1, 0)
	ev := b.Events()
	want := []Kind{Commit, ReadMiss, WriteMiss, Mark}
	if len(ev) != len(want) {
		t.Fatalf("events %v", ev)
	}
	for i, k := range want {
		if ev[i].Kind != k {
			t.Fatalf("event %d is %v, want %v: %v", i, ev[i].Kind, k, ev)
		}
	}
}

func TestRingWrap(t *testing.T) {
	b := New(3)
	for i := 0; i < 3; i++ {
		b.Record(i%2, int64(i), Flush, uint32(i), 0)
	}
	if b.Wrapped() || len(b.Events()) != 3 {
		t.Fatalf("a ring filled exactly: wrapped %v, events %v", b.Wrapped(), b.Events())
	}
	for i := 3; i < 5; i++ {
		b.Record(i%2, int64(i), Flush, uint32(i), 0)
	}
	if !b.Wrapped() {
		t.Fatal("five events in a ring of three: Wrapped() = false")
	}
	ev := b.Events()
	if len(ev) != 3 {
		t.Fatalf("retained %d, want 3", len(ev))
	}
	// Oldest events dropped; order preserved.
	if ev[0].Clock != 2 || ev[1].Clock != 3 || ev[2].Clock != 4 {
		t.Fatalf("wrap order %v", ev)
	}
	if got := b.CountKind(Flush); got != 3 {
		t.Fatalf("CountKind after wrap = %d, want 3", got)
	}
}

func TestReset(t *testing.T) {
	b := New(2)
	for i := 0; i < 3; i++ {
		b.Record(0, int64(i), Mark, 0, 0)
	}
	b.Reset()
	if b.Wrapped() || len(b.Events()) != 0 || b.CountKind(Mark) != 0 {
		t.Fatalf("after Reset: wrapped %v, events %v", b.Wrapped(), b.Events())
	}
	b.Record(1, 9, Flush, 4, 2)
	if ev := b.Events(); len(ev) != 1 || ev[0].Clock != 9 {
		t.Fatalf("recording after Reset: %v", ev)
	}
}

func TestCountKindAndDump(t *testing.T) {
	b := New(8)
	b.Record(0, 1, Invalidate, 5, 1)
	b.Record(1, 2, Invalidate, 5, 0)
	b.Record(1, 3, BarrierEvt, 0, 0)
	if got := b.CountKind(Invalidate); got != 2 {
		t.Fatalf("count = %d", got)
	}
	d := b.Dump(0)
	if !strings.Contains(d, "invalidate") || !strings.Contains(d, "barrier") {
		t.Fatalf("dump:\n%s", d)
	}
	if last := b.Dump(1); strings.Count(last, "\n") != 1 || !strings.Contains(last, "barrier") {
		t.Fatalf("limited dump is not the last event:\n%s", last)
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		ReadMiss: "read-miss", WriteMiss: "write-miss", Upgrade: "upgrade",
		Mark: "mark", Flush: "flush", Invalidate: "invalidate",
		Commit: "commit", BarrierEvt: "barrier", Conflict: "conflict",
	} {
		if k.String() != want {
			t.Fatalf("%d -> %q", k, k.String())
		}
	}
}

func TestZeroCapacityClamped(t *testing.T) {
	b := New(0)
	b.Record(0, 1, Mark, 0, 0)
	if len(b.Events()) != 1 || b.Wrapped() {
		t.Fatal("clamped capacity broken")
	}
	b.Record(0, 2, Flush, 0, 0)
	if ev := b.Events(); len(ev) != 1 || ev[0].Kind != Flush || !b.Wrapped() {
		t.Fatalf("a one-event ring keeps the newest event: %v", ev)
	}
}
