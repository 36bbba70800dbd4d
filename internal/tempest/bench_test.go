package tempest_test

import (
	"testing"

	"lcm/internal/cost"
	"lcm/internal/memsys"
	"lcm/internal/stache"
	"lcm/internal/tempest"
)

// spanWords is the window the span benchmarks read: 1 024 float32s, 4 KB.
const spanWords = 1024

// benchSpanWindow runs read on node 0 of a P=2 Stache machine, b.N times
// over a window of spanWords float32s that node 0 has made resident and
// writable, and reports ns/elem.  The window is declared read-only for the
// phase when readOnly is set.
func benchSpanWindow(b *testing.B, readOnly bool, read func(n *tempest.Node, base memsys.Addr, buf []float32) []float32) {
	m := tempest.New(2, 32, cost.Default())
	r := m.AS.Alloc("data", spanWords*4, memsys.KindCoherent, memsys.Interleaved)
	m.SetProtocol(stache.New())
	m.Freeze()
	var sink float32
	m.Run(func(n *tempest.Node) {
		if n.ID != 0 {
			return
		}
		for i := 0; i < spanWords; i++ {
			n.WriteF32(r.Base+memsys.Addr(i*4), float32(i))
		}
		if readOnly {
			n.DeclareReadOnly(r)
		}
		buf := make([]float32, spanWords)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink += read(n, r.Base, buf)[i%spanWords]
		}
		b.StopTimer()
	})
	if sink < 0 {
		b.Fatal("negative sum of non-negative elements")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/spanWords, "ns/elem")
}

// BenchmarkReadSpan is the span engine's unit cost: one op is a ReadSpan of
// 1 024 resident elements into a buffer.
//
//	go test -run '^$' -bench 'Read(Span|View)' -benchtime 20000x -cpu 1 ./internal/tempest
func BenchmarkReadSpan(b *testing.B) {
	benchSpanWindow(b, false, func(n *tempest.Node, base memsys.Addr, buf []float32) []float32 {
		tempest.ReadSpan(n, base, buf)
		return buf
	})
}

// BenchmarkReadView is BenchmarkReadSpan's in-place twin: the window is
// declared read-only, and one op is a ReadView of it, which moves nothing.
func BenchmarkReadView(b *testing.B) {
	benchSpanWindow(b, true, tempest.ReadView[float32])
}
