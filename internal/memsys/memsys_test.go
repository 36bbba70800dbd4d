package memsys

import (
	"testing"
	"testing/quick"
)

func TestAllocGeometry(t *testing.T) {
	as := NewAddressSpace(4, 32)
	r1 := as.Alloc("a", 100, KindCoherent, Interleaved) // pads to 128
	r2 := as.Alloc("b", 32, KindLCM, Blocked)
	if r1.Base != 0 || r1.Size != 128 {
		t.Fatalf("r1 base/size = %d/%d, want 0/128", r1.Base, r1.Size)
	}
	if r2.Base != 128 {
		t.Fatalf("r2 base = %d, want 128", r2.Base)
	}
	if got := r1.NumBlocks(); got != 4 {
		t.Fatalf("r1 blocks = %d, want 4", got)
	}
	as.Freeze()
	if as.NumBlocks() != 5 {
		t.Fatalf("total blocks = %d, want 5", as.NumBlocks())
	}
}

func TestSplitRoundTrip(t *testing.T) {
	as := NewAddressSpace(2, 64)
	as.Alloc("a", 1024, KindCoherent, Interleaved)
	as.Freeze()
	for a := Addr(0); a < 1024; a += 7 {
		b, off := as.Split(a)
		if got := Addr(b)*64 + Addr(off); got != a {
			t.Fatalf("split(%d) = (%d,%d) does not recombine (%d)", a, b, off, got)
		}
	}
}

func TestInterleavedHomes(t *testing.T) {
	as := NewAddressSpace(4, 32)
	r := as.Alloc("a", 32*8, KindCoherent, Interleaved)
	as.Freeze()
	for i := uint32(0); i < r.NumBlocks(); i++ {
		if got := as.HomeOf(r.FirstBlock() + BlockID(i)); got != int(i)%4 {
			t.Fatalf("block %d home = %d, want %d", i, got, i%4)
		}
	}
}

func TestBlockedHomes(t *testing.T) {
	as := NewAddressSpace(4, 32)
	r := as.Alloc("a", 32*8, KindCoherent, Blocked)
	as.Freeze()
	want := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for i, w := range want {
		if got := as.HomeOf(r.FirstBlock() + BlockID(i)); got != w {
			t.Fatalf("block %d home = %d, want %d", i, got, w)
		}
	}
}

func TestBlockedHomesUneven(t *testing.T) {
	// 10 blocks over 4 nodes: ceil(10/4)=3 per node -> 3,3,3,1.
	as := NewAddressSpace(4, 32)
	r := as.Alloc("a", 32*10, KindCoherent, Blocked)
	as.Freeze()
	counts := make([]int, 4)
	for i := uint32(0); i < r.NumBlocks(); i++ {
		counts[as.HomeOf(r.FirstBlock()+BlockID(i))]++
	}
	if counts[0] != 3 || counts[1] != 3 || counts[2] != 3 || counts[3] != 1 {
		t.Fatalf("blocked home counts = %v", counts)
	}
}

func TestSingleHome(t *testing.T) {
	as := NewAddressSpace(8, 32)
	r := as.AllocAt("a", 32*5, KindCoherent, SingleHome, 3)
	as.Freeze()
	for i := uint32(0); i < r.NumBlocks(); i++ {
		if got := as.HomeOf(r.FirstBlock() + BlockID(i)); got != 3 {
			t.Fatalf("block %d home = %d, want 3", i, got)
		}
	}
}

func TestRegionLookup(t *testing.T) {
	as := NewAddressSpace(2, 32)
	r1 := as.Alloc("a", 64, KindCoherent, Interleaved)
	r2 := as.Alloc("b", 64, KindLCM, Interleaved)
	// Pre-freeze lookup uses binary search.
	if got := as.RegionOf(r2.Base + 10); got != r2 {
		t.Fatalf("pre-freeze RegionOf -> %v, want b", got)
	}
	as.Freeze()
	if got := as.RegionOf(r1.Base); got != r1 {
		t.Fatalf("RegionOf(r1.Base) -> %v", got)
	}
	if got := as.RegionOf(r2.End() - 1); got != r2 {
		t.Fatalf("RegionOf(end-1) -> %v", got)
	}
	if got := as.RegionOf(r2.End()); got != nil {
		t.Fatalf("RegionOf past end -> %v, want nil", got)
	}
	if got := as.RegionOfBlock(r2.FirstBlock()); got != r2 {
		t.Fatalf("RegionOfBlock -> %v", got)
	}
}

func TestHomeDataDistinct(t *testing.T) {
	as := NewAddressSpace(2, 32)
	as.Alloc("a", 96, KindCoherent, Interleaved)
	as.Freeze()
	d0 := as.HomeData(0)
	d1 := as.HomeData(1)
	if len(d0) != 32 || len(d1) != 32 {
		t.Fatalf("block data lengths %d,%d", len(d0), len(d1))
	}
	d0[0] = 0xAA
	if d1[0] == 0xAA {
		t.Fatal("blocks alias")
	}
	if as.HomeBytes(0, 1)[0] != 0xAA {
		t.Fatal("HomeBytes does not alias HomeData")
	}
}

func TestFreezeGuards(t *testing.T) {
	as := NewAddressSpace(2, 32)
	as.Alloc("a", 32, KindCoherent, Interleaved)
	as.Freeze()
	as.Freeze() // idempotent
	mustPanic(t, func() { as.Alloc("b", 32, KindCoherent, Interleaved) })
}

func TestConstructorValidation(t *testing.T) {
	mustPanic(t, func() { NewAddressSpace(0, 32) })
	mustPanic(t, func() { NewAddressSpace(2, 33) })
	mustPanic(t, func() { NewAddressSpace(2, 4) })
	as := NewAddressSpace(2, 32)
	mustPanic(t, func() { as.Alloc("z", 0, KindCoherent, Interleaved) })
	mustPanic(t, func() { as.AllocAt("z", 32, KindCoherent, SingleHome, 9) })
}

func TestKindAndPolicyStrings(t *testing.T) {
	if KindLCM.String() != "lcm" || KindCoherent.String() != "coherent" ||
		KindReduction.String() != "reduction" || KindStale.String() != "stale" {
		t.Fatal("kind strings")
	}
	if Interleaved.String() != "interleaved" || Blocked.String() != "blocked" ||
		SingleHome.String() != "singlehome" {
		t.Fatal("home policy strings")
	}
}

// Property: every block of every region maps to a home in [0,P) and the
// region lookup agrees with the allocation, for arbitrary small layouts.
func TestHomeMapProperty(t *testing.T) {
	f := func(p uint8, sizes []uint16, policy uint8) bool {
		np := int(p)%8 + 1
		as := NewAddressSpace(np, 32)
		if len(sizes) > 16 {
			sizes = sizes[:16]
		}
		var regs []*Region
		for i, s := range sizes {
			sz := uint64(s)%2048 + 1
			pol := HomePolicy(int(policy+uint8(i)) % 3)
			regs = append(regs, as.AllocAt("r", sz, KindCoherent, pol, i%np))
		}
		if len(regs) == 0 {
			return true
		}
		as.Freeze()
		for _, r := range regs {
			for i := uint32(0); i < r.NumBlocks(); i++ {
				b := r.FirstBlock() + BlockID(i)
				h := as.HomeOf(b)
				if h < 0 || h >= np {
					return false
				}
				if as.RegionOfBlock(b) != r {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
