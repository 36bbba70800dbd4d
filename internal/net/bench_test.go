package net

import (
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
