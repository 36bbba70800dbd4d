package core

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"lcm/internal/memsys"
)

// put returns v as it sits in simulated memory; get reads it back.
func put[T memsys.Word](v T) []byte { return memsys.Bytes([]T{v}) }

func get[T memsys.Word](b []byte) T { return memsys.View[T](b)[0] }

var (
	putI64, getI64 = put[int64], get[int64]
	putF64, getF64 = put[float64], get[float64]
	putU32         = put[uint32]
)

func TestOverwriteMerge(t *testing.T) {
	rec := Overwrite{}
	if rec.ElemSize() != 4 {
		t.Fatal("default elem size")
	}
	pending := putU32(0)
	if rec.Merge(pending, putU32(5), putU32(0), false) {
		t.Fatal("first write flagged as conflict")
	}
	if get[uint32](pending) != 5 {
		t.Fatal("value not merged")
	}
	// Second writer, same value: no conflict.
	if rec.Merge(pending, putU32(5), putU32(0), true) {
		t.Fatal("identical double write flagged")
	}
	// Second writer, different value: conflict, last wins.
	if !rec.Merge(pending, putU32(9), putU32(0), true) {
		t.Fatal("conflicting write not flagged")
	}
	if get[uint32](pending) != 9 {
		t.Fatal("last value did not win")
	}
}

func TestOverwriteElemSizeOverride(t *testing.T) {
	rec := Overwrite{Elem: 8}
	if rec.ElemSize() != 8 {
		t.Fatal("elem size override")
	}
}

// Property: for any partition of contributions across copies, SumI64
// reconciliation equals the serial fold.
func TestSumI64MatchesSerialFold(t *testing.T) {
	f := func(initial int64, contribs []int32) bool {
		rec := SumI64{}
		clean := putI64(initial)
		pending := putI64(initial)
		want := initial
		for _, c := range contribs {
			want += int64(c)
			// Each copy starts from clean and adds its contribution,
			// exactly what an LCM private copy does.
			incoming := putI64(initial + int64(c))
			rec.Merge(pending, incoming, clean, false)
		}
		return getI64(pending) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// foldMatches checks one reconciler against a serial fold: for any initial
// value and any sequence of copies that each started from it and wrote
// something, merging the copies one by one leaves exactly the bytes that
// folding their values with plain Go arithmetic does.
func foldMatches[T memsys.Word](rec Reconciler, fold func(acc, in, clean T) T) func(*testing.T) {
	return func(t *testing.T) {
		if rec.ElemSize() != memsys.SizeOf[T]() {
			t.Fatalf("ElemSize %d, want %d", rec.ElemSize(), memsys.SizeOf[T]())
		}
		f := func(initial T, written []T) bool {
			clean, pending, want := put(initial), put(initial), initial
			for i, v := range written {
				want = fold(want, v, initial)
				if rec.Merge(pending, put(v), clean, i > 0) {
					return false // arithmetic reconcilers never conflict
				}
			}
			return bytes.Equal(pending, put(want)) && get[T](clean) == initial
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatal(err)
		}
	}
}

func sumFold[T memsys.Word](acc, in, clean T) T { return acc + (in - clean) }

// Every named arithmetic reconciler against its serial fold.
func TestReconcilersMatchSerialFold(t *testing.T) {
	t.Run("SumF32", foldMatches[float32](SumF32{}, sumFold[float32]))
	t.Run("SumF64", foldMatches[float64](SumF64{}, sumFold[float64]))
	t.Run("SumI64", foldMatches[int64](SumI64{}, sumFold[int64]))
	t.Run("MinF64", foldMatches[float64](MinF64{}, func(acc, in, _ float64) float64 {
		if in < acc {
			return in
		}
		return acc
	}))
	t.Run("MaxF64", foldMatches[float64](MaxF64{}, func(acc, in, _ float64) float64 {
		if in > acc {
			return in
		}
		return acc
	}))
	t.Run("ProdF64", foldMatches[float64](ProdF64{}, func(acc, in, clean float64) float64 {
		if clean == 0 {
			return in
		}
		return acc * (in / clean)
	}))
}

// Property: min/max reconciliation equals the serial min/max including the
// initial value.
func TestMinMaxMatchSerial(t *testing.T) {
	f := func(initial float64, vals []float64) bool {
		if math.IsNaN(initial) {
			return true
		}
		mn, mx := MinF64{}, MaxF64{}
		pmin, pmax := putF64(initial), putF64(initial)
		clean := putF64(initial)
		wantMin, wantMax := initial, initial
		for _, v := range vals {
			if math.IsNaN(v) {
				continue
			}
			mn.Merge(pmin, putF64(v), clean, false)
			mx.Merge(pmax, putF64(v), clean, false)
			if v < wantMin {
				wantMin = v
			}
			if v > wantMax {
				wantMax = v
			}
		}
		return getF64(pmin) == wantMin && getF64(pmax) == wantMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSumF64Contributions(t *testing.T) {
	rec := SumF64{}
	clean := putF64(10)
	pending := putF64(10)
	rec.Merge(pending, putF64(13), clean, false) // contribution +3
	rec.Merge(pending, putF64(8), clean, true)   // contribution -2
	if got := getF64(pending); got != 11 {
		t.Fatalf("sum = %v, want 11", got)
	}
}

func TestSumF32Contributions(t *testing.T) {
	rec := SumF32{}
	mk := put[float32]
	clean := mk(1)
	pending := mk(1)
	rec.Merge(pending, mk(3), clean, false)
	rec.Merge(pending, mk(0), clean, true)
	if got := get[float32](pending); got != 2 {
		t.Fatalf("sum = %v, want 2", got)
	}
}

func TestProdF64(t *testing.T) {
	rec := ProdF64{}
	clean := putF64(2)
	pending := putF64(2)
	rec.Merge(pending, putF64(6), clean, false) // factor 3
	rec.Merge(pending, putF64(10), clean, true) // factor 5
	if got := getF64(pending); got != 30 {
		t.Fatalf("prod = %v, want 30", got)
	}
	// Zero clean value: incoming replaces.
	cleanZ := putF64(0)
	pendZ := putF64(0)
	rec.Merge(pendZ, putF64(7), cleanZ, false)
	if got := getF64(pendZ); got != 7 {
		t.Fatalf("prod from zero = %v, want 7", got)
	}
}

func TestFuncReconciler(t *testing.T) {
	// XOR-merge as a custom policy.
	rec := Func{Elem: 4, F: func(pending, incoming, clean []byte, prior bool) bool {
		memsys.View[uint32](pending)[0] ^= get[uint32](incoming)
		return false
	}}
	if rec.ElemSize() != 4 {
		t.Fatal("elem size")
	}
	pending := putU32(0b1100)
	rec.Merge(pending, putU32(0b1010), putU32(0), false)
	if got := get[uint32](pending); got != 0b0110 {
		t.Fatalf("xor merge = %#b", got)
	}
}

// Property: merging any set of writes to DISJOINT elements of a block under
// Overwrite yields exactly the union of the writes, independent of order.
func TestDisjointOverwriteMergeProperty(t *testing.T) {
	f := func(assign []uint8, vals []uint32) bool {
		const elems = 8
		if len(vals) == 0 {
			return true
		}
		rec := Overwrite{}
		clean := make([]byte, 4*elems) // zero clean image
		pending := make([]byte, 4*elems)
		want := make([]uint32, elems)
		// Each element is written by at most one "node": assign element
		// e to writer assign[e]%3; nodes write vals in their slots.
		for e := 0; e < elems && e < len(assign); e++ {
			v := vals[e%len(vals)]
			if v == 0 {
				continue // unmodified elements merge nothing
			}
			incoming := putU32(v)
			if rec.Merge(pending[e*4:e*4+4], incoming, clean[e*4:e*4+4], false) {
				return false // disjoint writes must not conflict
			}
			want[e] = v
		}
		for e := 0; e < elems; e++ {
			if get[uint32](pending[e*4:]) != want[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyValidate(t *testing.T) {
	cases := []struct {
		pol Policy
		ok  bool
	}{
		{Coherent(), true},
		{LooselyCoherent(), true},
		{Reduction(SumF64{}), true},
		{Detect(true), true},
		{Detect(false), true},
		{Stale(3), true},
		{Policy{Kind: 1, StalePhases: -1}, false},
		{Policy{Kind: 2}, false},                   // reduction without reconciler
		{Policy{Kind: 1, FlushReads: true}, false}, // FlushReads without check
		{Policy{Kind: 1, StalePhases: 2}, false},   // stale phases on LCM kind
		{Policy{Kind: 2, Reconciler: SumF64{}, ConflictCheck: true}, false}, // checked reduction
	}
	for i, tc := range cases {
		err := tc.pol.Validate()
		if (err == nil) != tc.ok {
			t.Fatalf("case %d: Validate() = %v, ok=%v", i, err, tc.ok)
		}
	}
}

func TestVariantStrings(t *testing.T) {
	if SCC.String() != "lcm-scc" || MCC.String() != "lcm-mcc" {
		t.Fatal("variant strings")
	}
	if WriteWrite.String() != "write-write" || ReadWrite.String() != "read-write" {
		t.Fatal("conflict kind strings")
	}
}
