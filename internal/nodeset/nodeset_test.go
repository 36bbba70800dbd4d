package nodeset

import (
	"math/rand"
	"reflect"
	"testing"
)

// refSet is the reference model: a plain map with the same operations.
type refSet map[int]bool

// refMembers lists the model's members in ascending order.
func refMembers(r refSet) []int {
	out := []int{}
	for id := 0; id < 65536; id++ {
		if r[id] {
			out = append(out, id)
		}
	}
	return out
}

// checkAgainst asserts every observation of s matches the model.
func checkAgainst(t *testing.T, s *Set, ref refSet) {
	t.Helper()
	want := refMembers(ref)
	if got := s.Members(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Members() = %v, want %v", got, want)
	}
	if got := s.Count(); got != len(want) {
		t.Fatalf("Count() = %d, want %d", got, len(want))
	}
	if got := s.Empty(); got != (len(want) == 0) {
		t.Fatalf("Empty() = %v with %d members", got, len(want))
	}
	// Membership probes on both sides of every boundary of interest.
	for _, probe := range []int{0, 1, 62, 63, 64, 65, 127, 128, 129, 1023} {
		if got := s.Contains(probe); got != ref[probe] {
			t.Fatalf("Contains(%d) = %v, want %v", probe, got, ref[probe])
		}
	}
}

// TestDifferentialAgainstMap drives random Add/Remove/Clear sequences
// across the 64-bit spill boundary and checks every observation against
// the map model.
func TestDifferentialAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Set
	ref := refSet{}
	for step := 0; step < 20000; step++ {
		// Cluster IDs near word boundaries so the spill transitions get
		// dense coverage, with occasional far outliers.
		id := rng.Intn(130)
		if rng.Intn(20) == 0 {
			id = 64*rng.Intn(16) + rng.Intn(3)
		}
		switch rng.Intn(5) {
		case 0, 1, 2:
			s.Add(id)
			ref[id] = true
		case 3:
			s.Remove(id)
			delete(ref, id)
		case 4:
			if rng.Intn(50) == 0 {
				s.Clear()
				ref = refSet{}
			}
		}
		if step%500 == 0 || step > 19900 {
			checkAgainst(t, &s, ref)
		}
	}
	checkAgainst(t, &s, ref)
}

// TestSetAlgebra checks SubsetOf/Subtract/Clone against the
// model on random pairs, including pairs with different spill lengths.
func TestSetAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		a, b := Set{}, Set{}
		ra, rb := refSet{}, refSet{}
		// Different max IDs per side so spill lengths disagree.
		maxA, maxB := 1+rng.Intn(200), 1+rng.Intn(200)
		for i := 0; i < 30; i++ {
			ida, idb := rng.Intn(maxA), rng.Intn(maxB)
			a.Add(ida)
			ra[ida] = true
			b.Add(idb)
			rb[idb] = true
		}
		wantSubset := true
		for id := range ra {
			if !rb[id] {
				wantSubset = false
			}
		}
		if got := a.SubsetOf(&b); got != wantSubset {
			t.Fatalf("SubsetOf(%v, %v) = %v, want %v", a, b, got, wantSubset)
		}
		diff := a.Clone()
		diff.Subtract(&b)
		for id := range rb {
			delete(ra, id)
		}
		if got, want := diff.Members(), refMembers(ra); !reflect.DeepEqual(got, want) {
			t.Fatalf("Subtract: got %v, want %v", got, want)
		}
	}
}

// TestCloneIsIndependent verifies mutating a clone never touches the
// original (the conflict log depends on this).
func TestCloneIsIndependent(t *testing.T) {
	s := Of(3, 70, 140)
	c := s.Clone()
	c.Add(5)
	c.Remove(70)
	if got := s.Members(); !reflect.DeepEqual(got, []int{3, 70, 140}) {
		t.Fatalf("original mutated through clone: %v", got)
	}
	if got := c.Members(); !reflect.DeepEqual(got, []int{3, 5, 140}) {
		t.Fatalf("clone = %v", got)
	}
}

// TestIterRemoveDuringIteration pins the documented guarantee the
// reconcile fan-out relies on: removing the member just returned does
// not perturb the remaining sequence.
func TestIterRemoveDuringIteration(t *testing.T) {
	s := Of(0, 5, 63, 64, 90, 127, 128, 300)
	var seen []int
	for it := s.Iter(); ; {
		id, ok := it.Next()
		if !ok {
			break
		}
		seen = append(seen, id)
		if id != 90 { // keep one member in place, drop the rest
			s.Remove(id)
		}
	}
	if want := []int{0, 5, 63, 64, 90, 127, 128, 300}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("iteration saw %v, want %v", seen, want)
	}
	if got := s.Members(); !reflect.DeepEqual(got, []int{90}) {
		t.Fatalf("after removal Members() = %v, want [90]", got)
	}
}

// TestLow64MatchesFlatMask checks the inline word is bit-compatible with
// the historical flat uint64 representation for IDs below 64.
func TestLow64MatchesFlatMask(t *testing.T) {
	s := Of(0, 1, 3, 63)
	if got, want := s.Low64(), uint64(1)|1<<1|1<<3|1<<63; got != want {
		t.Fatalf("Low64() = %#x, want %#x", got, want)
	}
	s.Add(64) // spill members must not leak into the inline word
	if got, want := s.Low64(), uint64(1)|1<<1|1<<3|1<<63; got != want {
		t.Fatalf("Low64() after spill Add = %#x, want %#x", got, want)
	}
}

// TestArenaSets checks arena-carved sets are empty, pre-sized, and fully
// independent of each other.
func TestArenaSets(t *testing.T) {
	if w := NewArena(63).Words(); w != 0 {
		t.Fatalf("Words(maxID=63) = %d, want 0 (inline only)", w)
	}
	if s := NewArena(63).Make(); len(s.spill) != 0 {
		t.Fatalf("P<=64 arena set has spill %v", s.spill)
	}
	ar := NewArena(255)
	if ar.Words() != 3 {
		t.Fatalf("Words(maxID=255) = %d, want 3", ar.Words())
	}
	// More sets than one chunk holds, so chunk refill is exercised.
	sets := make([]Set, 3*arenaChunkSets/2)
	for i := range sets {
		sets[i] = ar.Make()
		if !sets[i].Empty() {
			t.Fatalf("arena set %d not empty", i)
		}
	}
	for i := range sets {
		sets[i].Add(64 + i%192)
	}
	for i := range sets {
		if got := sets[i].Members(); !reflect.DeepEqual(got, []int{64 + i%192}) {
			t.Fatalf("set %d = %v, want [%d] (aliasing between arena sets?)", i, got, 64+i%192)
		}
	}
}

func TestString(t *testing.T) {
	if got := Of().String(); got != "{}" {
		t.Errorf("empty String() = %q", got)
	}
	if got := Of(2, 0, 65).String(); got != "{0,2,65}" {
		t.Errorf("String() = %q, want {0,2,65}", got)
	}
}

// FuzzOps feeds arbitrary op streams (2 bytes per op: opcode + ID) to a
// Set and the map model, biasing IDs to straddle the spill boundary.
func FuzzOps(f *testing.F) {
	f.Add([]byte{0, 63, 0, 64, 1, 63, 0, 65, 1, 64})
	f.Add([]byte{0, 0, 0, 127, 0, 128, 2, 0, 0, 63})
	f.Add([]byte{0, 10, 0, 200, 1, 200, 0, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var s Set
		ref := refSet{}
		for i := 0; i+1 < len(ops); i += 2 {
			id := int(ops[i+1])
			switch ops[i] % 3 {
			case 0:
				s.Add(id)
				ref[id] = true
			case 1:
				s.Remove(id)
				delete(ref, id)
			case 2:
				s.Clear()
				ref = refSet{}
			}
			if got, want := s.Count(), len(ref); got != want {
				t.Fatalf("op %d: Count() = %d, want %d", i, got, want)
			}
		}
		if got, want := s.Members(), refMembers(ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("Members() = %v, want %v", got, want)
		}
		for id := range ref {
			if !s.Contains(id) {
				t.Fatalf("Contains(%d) = false, want true", id)
			}
		}
	})
}
