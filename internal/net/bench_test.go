package net

import (
	"math/rand/v2"
	"testing"

	"lcm/internal/cost"
)

// benchCharge times the pricing of one blocking round trip between changing
// pairs of 32 nodes, clock advancing: the reliable path every remote miss
// takes (RoundTrip → send → topology.price), which must not allocate.
func benchCharge(b *testing.B, model string) {
	nw, err := New(Config{Model: model}, 32, cost.Default())
	if err != nil {
		b.Fatal(err)
	}
	var c Counters
	var now int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := i % 32
		now += nw.RoundTrip(src, (src+1+i%31)%32, 32, now, &c)
	}
	if c.Msgs[MsgMissRequest] != int64(b.N) {
		b.Fatalf("%d requests counted for %d round trips", c.Msgs[MsgMissRequest], b.N)
	}
}

func BenchmarkUniformCharge(b *testing.B) { benchCharge(b, "uniform") }
func BenchmarkFatTreeCharge(b *testing.B) { benchCharge(b, "fattree") }

// BenchmarkFatTreeChargeContended times a round trip between random pairs of
// 32 nodes while the clock advances 40 cycles a call, far less than a round
// trip, so that most hops queue: the price BenchmarkFatTreeCharge, whose
// clock leaps past every message, never shows.  The reference walk (refTree,
// fattree_test.go) runs the same sequence beside it.
func BenchmarkFatTreeChargeContended(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	var pairs [1024][2]int
	for i := range pairs {
		pairs[i] = [2]int{rng.IntN(32), rng.IntN(32)}
	}
	for _, walk := range []struct {
		name string
		nw   func() *Network
	}{
		{"straight", func() *Network { return NewFatTree(Config{}, 32) }},
		{"reference", func() *Network { return newRefTree(Config{}, 32) }},
	} {
		b.Run(walk.name, func(b *testing.B) {
			nw := walk.nw()
			var c Counters
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pr := &pairs[i%len(pairs)]
				nw.RoundTrip(pr[0], pr[1], 32, int64(i)*40, &c)
			}
			if c.QueueCycles == 0 && b.N > len(pairs) {
				b.Fatal("no round trip queued")
			}
		})
	}
}
