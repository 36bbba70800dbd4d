package memsys

import "testing"

// rehomeSpace builds a frozen 4-node space with one interleaved region so
// every node homes some blocks.
func rehomeSpace(t *testing.T) (*AddressSpace, *Region) {
	t.Helper()
	as := NewAddressSpace(4, 32)
	r := as.Alloc("data", 32*32, KindCoherent, Interleaved)
	as.Freeze()
	return as, r
}

// homes returns the home of every block of r.
func homes(as *AddressSpace, r *Region) []int {
	h := make([]int, r.NumBlocks())
	for i := range h {
		h[i] = as.HomeOf(r.FirstBlock() + BlockID(i))
	}
	return h
}

// TestRehomeMigratesEveryBlock: after Rehome(from, to), no block's home is
// `from`, the migrated blocks answer `to`, and other homes are untouched.
func TestRehomeMigratesEveryBlock(t *testing.T) {
	as, r := rehomeSpace(t)
	before := homes(as, r)
	var expect int64
	for _, h := range before {
		if h == 2 {
			expect++
		}
	}
	if expect == 0 {
		t.Fatal("interleaved layout homes nothing at node 2; test proves nothing")
	}
	if moved := as.Rehome(2, 0); moved != expect {
		t.Fatalf("Rehome moved %d blocks, want %d", moved, expect)
	}
	for i, got := range homes(as, r) {
		want := before[i]
		if want == 2 {
			want = 0
		}
		if got != want {
			t.Errorf("block %d: HomeOf = %d, want %d", r.FirstBlock()+BlockID(i), got, want)
		}
	}
}

// TestRehomeChains: a second migration moves the adopter's entire
// responsibility, including blocks it adopted earlier (the current home,
// not the Freeze-time one, decides).
func TestRehomeChains(t *testing.T) {
	as, r := rehomeSpace(t)
	frozen := homes(as, r)
	as.Rehome(2, 3)
	as.Rehome(3, 1)
	for i, got := range homes(as, r) {
		b := r.FirstBlock() + BlockID(i)
		if got == 2 || got == 3 {
			t.Errorf("block %d still homed at dead node %d after chained rehoming", b, got)
		}
		if base := frozen[i]; (base == 2 || base == 3) && got != 1 {
			t.Errorf("block %d (Freeze-time home %d): HomeOf = %d, want final adopter 1", b, base, got)
		}
	}
}

// TestRehomeValidation: migration is only legal on a frozen space between
// distinct valid nodes.
func TestRehomeValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	unfrozen := NewAddressSpace(4, 32)
	unfrozen.Alloc("data", 64, KindCoherent, Interleaved)
	mustPanic("Rehome before Freeze", func() { unfrozen.Rehome(1, 0) })

	as, _ := rehomeSpace(t)
	mustPanic("Rehome(1,1)", func() { as.Rehome(1, 1) })
	mustPanic("Rehome(-1,0)", func() { as.Rehome(-1, 0) })
	mustPanic("Rehome(0,4)", func() { as.Rehome(0, 4) })
}
