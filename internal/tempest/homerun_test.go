package tempest

import (
	"math/rand/v2"
	"testing"

	"lcm/internal/cost"
	"lcm/internal/memsys"
)

// oldHomeRun is homeRun with its two tests in their first order: with posts
// outstanding, the owned prefix over the whole span, then the home prefix
// within it.  homeRun now takes the home prefix first and tests ownership
// only over the blocks that prefix passed; both orders return the shorter
// of the two prefixes.
func oldHomeRun(n *Node, a memsys.Addr, elem uint32, max int, need Tag) int {
	if max == 0 {
		return 0
	}
	bs := uint64(n.M.AS.BlockSize)
	b, off := n.M.AS.Split(a)
	end := uint64(off) + uint64(max)*uint64(elem)
	tags := n.tags[b : uint64(b)+(end+bs-1)/bs]
	if n.fxLen != 0 && (need != TagReadOnly || !n.M.readOnlyRun(b, b+memsys.BlockID(len(tags)-1))) {
		tags = tags[:n.ownedPrefix(b, len(tags))]
	}
	passed := homePrefix(tags, byte(need)<<tagShift)
	if passed == 0 {
		return 0
	}
	return int((min(uint64(passed)*bs, end) - uint64(off)) / uint64(elem))
}

// homeRunMachine is a one-node machine of two 40-block coherent regions,
// whose indices it returns, that has run once, so that it has a scheduler for
// homeRun's store runs to note their blocks with (Lock).
func homeRunMachine() (*Machine, *Node, [2]int) {
	m := New(1, 32, cost.Uniform(1))
	a := m.AS.Alloc("a", 40*32, memsys.KindCoherent, memsys.Interleaved)
	b := m.AS.Alloc("b", 40*32, memsys.KindCoherent, memsys.Interleaved)
	m.SetProtocol(&fakeProtocol{})
	m.Freeze()
	m.Run(func(*Node) {})
	return m, m.Nodes[0], [2]int{m.AS.RegionIndex(m.AS.Block(a.Base)), m.AS.RegionIndex(m.AS.Block(b.Base))}
}

// checkHomeRun decodes in into one homeRun call and its machine state, and
// fails t unless homeRun returns what oldHomeRun does.  in spells:
//
//	in[0]      bit 0: a store (else a load); bit 1: posts outstanding; bits
//	           2 and 3: region a, b declared read-only; bit 4: no block
//	           declared owned at all (the owned table not yet made)
//	in[1]      element size: 4 when even, 8 when odd
//	in[2]      the span's first block; in[3] its element offset in it
//	in[4:6]    the element count, cut to what fits before the last block
//	in[6:]     two bytes a block from the first: its access byte, and who
//	           owns it (0 nobody, 1 the node, 2 another node, 3 the node in
//	           an earlier epoch); blocks past the input are home lines the
//	           node may store to, and owns
func checkHomeRun(t *testing.T, m *Machine, n *Node, regions [2]int, in []byte) {
	if len(in) < 6 {
		return
	}
	nb := int(m.AS.NumBlocks())
	need := TagReadOnly
	if in[0]&1 != 0 {
		need = TagReadWrite
	}
	n.fxLen = 0
	if in[0]&2 != 0 {
		n.fxLen = 1
	}
	defer func() { n.fxLen = 0 }()
	for i, bit := range []byte{4, 8} {
		m.readOnly[regions[i]] = m.epoch - 1
		if in[0]&bit != 0 {
			m.readOnly[regions[i]] = m.epoch
		}
	}
	m.owned = nil
	if in[0]&16 == 0 {
		m.owned = make([]uint64, nb)
	}
	elem := uint32(4 << (in[1] & 1))
	first := int(in[2]) % nb
	off := uint32(in[3]) % (m.AS.BlockSize / elem) * elem
	a := memsys.Addr(first)*memsys.Addr(m.AS.BlockSize) + memsys.Addr(off)
	room := (nb-first)*int(m.AS.BlockSize/elem) - int(off/elem)
	max := int(uint16(in[4])|uint16(in[5])<<8) % (room + 1)

	keys := [4]uint64{0, n.ownKey(), uint64(m.epoch)<<32 | 2, uint64(m.epoch-1)<<32 | 1}
	per := in[6:]
	for b := first; b < nb; b++ {
		tag, who := storeOK|lineHome, byte(1)
		if k := 2 * (b - first); k+1 < len(per) {
			tag, who = per[k], per[k+1]%4
		}
		n.tags[b] = tag
		if m.owned != nil {
			m.owned[b] = keys[who]
		}
	}

	got, want := n.homeRun(a, elem, max, need), oldHomeRun(n, a, elem, max, need)
	if got != want || got > max {
		t.Fatalf("homeRun(block %d + %d, elem %d, max %d, %v) = %d, want %d (in %x)",
			first, off, elem, max, need, got, want, in)
	}
}

// homeRunSeeds are FuzzHomeRun's hand-written inputs, one per case the two
// orders must agree on.
var homeRunSeeds = [][]byte{
	{0, 0, 3, 1, 200, 0}, // a load, nothing posted: the home prefix alone
	{1, 1, 5, 0, 100, 0}, // a store, nothing posted
	{3, 0, 2, 0, 80, 0, 0x81, 1, 0x81, 1, 0x81, 2, 0x81, 1}, // posted store: the owned prefix ends first
	{3, 0, 2, 0, 80, 0, 0x81, 1, 0x81, 1, 0x41, 1, 0x81, 1}, // posted store: the home prefix ends first
	{7, 0, 0, 0, 90, 1, 0x41, 0, 0x41, 0, 0x41, 0},          // posted store over a read-only region: owned rules
	{6, 0, 1, 0, 255, 0, 0x41, 0, 0x41, 0, 0x41, 3},         // posted load, all in read-only a: owned ignored
	{6, 0, 36, 0, 255, 0, 0x41, 0, 0x41, 0, 0x41, 0},        // posted load from read-only a into b: owned rules
	{18, 1, 4, 3, 60, 0},             // posted load with no owned table
	{3, 0, 9, 5, 0, 0},               // an empty span
	{2, 1, 79, 3, 255, 255, 0x41, 1}, // the last block
}

// FuzzHomeRun holds the span run path's scan to its former order over
// generated tag rows, owned ranges, read-only regions and empty or non-empty
// effect logs.  Besides the hand-written seeds, go test runs a few hundred
// inputs drawn from a fixed stream.
func FuzzHomeRun(f *testing.F) {
	for _, in := range homeRunSeeds {
		f.Add(in)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for range 400 {
		in := make([]byte, 6+2*rng.IntN(24))
		for i := range in {
			in[i] = byte(rng.Uint32())
		}
		// Mostly home lines, so that runs are long enough to end on
		// ownership as often as on a tag.
		for i := 6; i < len(in); i += 2 {
			if rng.IntN(4) != 0 {
				in[i] = []byte{loadOK, storeOK}[rng.IntN(2)] | lineHome
			}
			if rng.IntN(3) != 0 {
				in[i+1] = 1
			}
		}
		f.Add(in)
	}
	m, n, regions := homeRunMachine()
	f.Fuzz(func(t *testing.T, in []byte) { checkHomeRun(t, m, n, regions, in) })
}
