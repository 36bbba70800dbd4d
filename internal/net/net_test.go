package net

import (
	"testing"

	"lcm/internal/cost"
)

// TestUniformMatchesFlatModel pins the uniform model to the legacy flat
// charges: this is the bit-exactness contract of `-net=uniform`.
func TestUniformMatchesFlatModel(t *testing.T) {
	c := cost.Default()
	u := NewUniform(c, DefaultHeaderBytes)
	var ctr Counters
	cases := []struct {
		name string
		got  int64
		want int64
	}{
		{"roundtrip+64B", u.RoundTrip(0, 1, 64, 0, &ctr), c.RemoteRoundTrip + 64*c.PerByte},
		{"roundtrip+0B", u.RoundTrip(3, 0, 0, 999, &ctr), c.RemoteRoundTrip},
		{"timeout", u.Timeout(0, 1, 0, &ctr), c.RemoteRoundTrip},
		{"forward", u.Forward(1, 2, 0, &ctr), c.ThirdHop},
		{"upgrade", u.Upgrade(0, 1, 0, &ctr), c.Upgrade},
		{"invalidate", u.Invalidate(0, 1, 0, &ctr), c.InvalidatePerCopy},
		{"flush+16B", u.Flush(0, 1, 16, 0, &ctr), c.FlushPerBlock + 16*c.PerByte},
		{"flush+0B", u.Flush(0, 1, 0, 0, &ctr), c.FlushPerBlock},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("%s: charged %d, want %d", tc.name, tc.got, tc.want)
		}
	}
	if ctr.QueueCycles != 0 {
		t.Errorf("uniform model queued %d cycles, want 0", ctr.QueueCycles)
	}
	if u.LinkStats() != (LinkStats{}) {
		t.Errorf("uniform model has link stats: %+v", u.LinkStats())
	}
}

// TestUniformAccounting checks message/byte bookkeeping per method.
func TestUniformAccounting(t *testing.T) {
	u := NewUniform(cost.Default(), 8)
	var c Counters
	u.RoundTrip(0, 1, 32, 0, &c)
	u.Forward(1, 2, 0, &c)
	u.Upgrade(0, 1, 0, &c)
	u.Invalidate(0, 1, 0, &c)
	u.Flush(0, 1, 16, 0, &c)
	u.Timeout(0, 1, 0, &c)
	u.Barrier(0, &c)
	want := Counters{Bytes: (16 + 32) + 8 + 16 + 8 + (8 + 16) + 8 + 8}
	want.Msgs[MsgMissRequest] = 2 // round trip + timed-out resend
	want.Msgs[MsgDataReply] = 1
	want.Msgs[MsgForward] = 1
	want.Msgs[MsgUpgrade] = 2
	want.Msgs[MsgInvalidate] = 1
	want.Msgs[MsgFlush] = 1
	want.Msgs[MsgBarrier] = 1
	if c != want {
		t.Errorf("counters:\n got  %+v\n want %+v", c, want)
	}
	if got := c.TotalMsgs(); got != 9 {
		t.Errorf("TotalMsgs = %d, want 9", got)
	}
}

// TestEveryClassBothModels walks the class table: each exchange class, sent
// once on a quiet network, must count the kinds and bytes of its row and
// charge the closed form of each model — under the uniform model the flat
// price plus the per-byte term, under the fat tree the uncontended route of
// each leg (the sender of a detached class pays injection only while the
// message still occupies its whole route).  A class without a row here fails.
func TestEveryClassBothModels(t *testing.T) {
	const (
		src, dst, hops = 0, 5, 4 // of 16 leaves: same level-2 subtree
		H              = DefaultHeaderBytes
	)
	c := cost.Default()
	oneWay := func(bytes int64) int64 {
		return 2*DefaultNICycles + hops*(DefaultHopCycles+bytes*DefaultCyclesPerByte)
	}
	kinds := func(ks ...Kind) (m [NumKinds]int64) {
		for _, k := range ks {
			m[k]++
		}
		return m
	}
	rows := map[Class]struct {
		name    string
		send    func(nw *Network, c *Counters) int64
		msgs    [NumKinds]int64
		bytes   int64
		uniform int64
		fattree int64 // charge to the sender
		busy    int64 // link occupancy the exchange leaves behind
	}{
		ClassRoundTrip: {"roundTrip", func(nw *Network, c *Counters) int64 { return nw.RoundTrip(src, dst, 32, 0, c) },
			kinds(MsgMissRequest, MsgDataReply), 2*H + 32,
			c.RemoteRoundTrip + 32*c.PerByte, oneWay(H) + oneWay(H+32), oneWay(H) + oneWay(H+32)},
		ClassTimeout: {"timeout", func(nw *Network, c *Counters) int64 { return nw.Timeout(src, dst, 0, c) },
			kinds(MsgMissRequest), H, c.RemoteRoundTrip, oneWay(H), oneWay(H)},
		ClassForward: {"forward", func(nw *Network, c *Counters) int64 { return nw.Forward(src, dst, 0, c) },
			kinds(MsgForward), H, c.ThirdHop, oneWay(H), oneWay(H)},
		ClassUpgrade: {"upgrade", func(nw *Network, c *Counters) int64 { return nw.Upgrade(src, dst, 0, c) },
			kinds(MsgUpgrade, MsgUpgrade), 2 * H, c.Upgrade, 2 * oneWay(H), 2 * oneWay(H)},
		ClassInvalidate: {"invalidate", func(nw *Network, c *Counters) int64 { return nw.Invalidate(src, dst, 0, c) },
			kinds(MsgInvalidate), H, c.InvalidatePerCopy, oneWay(H), oneWay(H)},
		ClassFlush: {"flush", func(nw *Network, c *Counters) int64 { return nw.Flush(src, dst, 16, 0, c) },
			kinds(MsgFlush), H + 16, c.FlushPerBlock + 16*c.PerByte, DefaultNICycles, oneWay(H + 16)},
	}
	for id := Class(0); id < numClasses; id++ {
		row, ok := rows[id]
		if !ok {
			t.Errorf("class %d has no row in this test", id)
			continue
		}
		for _, model := range []string{"uniform", "fattree"} {
			nw, err := New(Config{Model: model}, 16, c)
			if err != nil {
				t.Fatal(err)
			}
			var ctr Counters
			got := row.send(nw, &ctr)
			want, busy := row.uniform, int64(0)
			if model == "fattree" {
				want, busy = row.fattree, row.busy
			}
			if got != want {
				t.Errorf("%s/%s: charged %d, want %d", row.name, model, got, want)
			}
			if wantCtr := (Counters{Msgs: row.msgs, Bytes: row.bytes}); ctr != wantCtr {
				t.Errorf("%s/%s: counters\n got  %+v\n want %+v", row.name, model, ctr, wantCtr)
			}
			if ls := nw.LinkStats(); ls.TotalBusy != busy {
				t.Errorf("%s/%s: links busy %d cycles, want %d", row.name, model, ls.TotalBusy, busy)
			}
		}
	}
}

func TestCountersAdd(t *testing.T) {
	var a, b Counters
	a.Msgs[MsgFlush] = 2
	a.Bytes = 10
	a.QueueCycles = 5
	b.Msgs[MsgFlush] = 3
	b.Msgs[MsgBarrier] = 1
	b.Bytes = 7
	a.Add(&b)
	if a.Msgs[MsgFlush] != 5 || a.Msgs[MsgBarrier] != 1 || a.Bytes != 17 || a.QueueCycles != 5 {
		t.Errorf("Add: %+v", a)
	}
}

func TestNewSelectsModel(t *testing.T) {
	c := cost.Default()
	n, err := New(Config{}, 8, c)
	if err != nil || n.Name() != "uniform" {
		t.Fatalf("New(zero) = %v, %v; want uniform", n, err)
	}
	n, err = New(Config{Model: "fattree"}, 8, c)
	if err != nil || n.Name() != "fattree" {
		t.Fatalf("New(fattree) = %v, %v", n, err)
	}
	if _, err = New(Config{Model: "torus"}, 8, c); err == nil {
		t.Fatal("New(torus) succeeded, want error")
	}
}

func TestKindString(t *testing.T) {
	if MsgMissRequest.String() != "miss_request" || MsgBarrier.String() != "barrier" {
		t.Errorf("kind names: %v %v", MsgMissRequest, MsgBarrier)
	}
	if Kind(99).String() != "kind(99)" {
		t.Errorf("out-of-range kind: %v", Kind(99))
	}
}
