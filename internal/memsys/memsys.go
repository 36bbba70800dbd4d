// Package memsys implements the global address space of the simulated
// machine: block geometry, region allocation, home-node mapping, and the
// per-region memory-system policy attributes that the RSM model exposes to
// the compiler (Section 3 of the paper).
//
// Physically distributed memory is addressed through a single global byte
// address space.  The space is carved into fixed-size blocks (the coherence
// transfer unit).  Every block has a home node determined by its region's
// home policy.  Regions also carry the RSM policy directives: which request
// policy governs copies of their blocks and which reconciliation function
// combines returned copies.
package memsys

import (
	"fmt"
	"math/bits"
	"sort"
)

// Addr is a global byte address in the simulated shared address space.
type Addr uint64

// BlockID identifies a coherence block: Addr >> blockShift.  Blocks are
// dense from 0, so protocols index flat per-block tables with them.
type BlockID uint32

// Kind selects the memory-system policy family for a region.  It is the
// program-visible RSM directive: it tells the active protocol which request
// and reconciliation policies govern the region's blocks.
type Kind uint8

const (
	// KindCoherent is the default sequentially consistent cache-coherent
	// policy (the Stache behaviour): single-writer, last-value-wins
	// reconciliation.
	KindCoherent Kind = iota
	// KindLCM marks the region loosely coherent: writes create private
	// copies (copy-on-write after MarkModification) and copies are
	// merged word-by-word at ReconcileCopies.
	KindLCM
	// KindReduction marks an LCM region whose reconciliation combines
	// values with an associative operator instead of overwriting (the
	// C** "%=" reduction assignments and Section 7.1 reductions).
	KindReduction
	// KindStale marks a region whose read-only copies may survive
	// reconciliation and serve stale values until the consumer refreshes
	// them (Section 7.5).
	KindStale
)

func (k Kind) String() string {
	switch k {
	case KindCoherent:
		return "coherent"
	case KindLCM:
		return "lcm"
	case KindReduction:
		return "reduction"
	case KindStale:
		return "stale"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// HomePolicy selects how a region's blocks map to home nodes.
type HomePolicy uint8

const (
	// Interleaved assigns homes block-cyclically across all nodes, the
	// default for shared heap data.
	Interleaved HomePolicy = iota
	// Blocked splits the region into P contiguous chunks, chunk i homed
	// at node i (owner-compute layouts).
	Blocked
	// SingleHome places every block of the region at one node.
	SingleHome
)

func (h HomePolicy) String() string {
	switch h {
	case Interleaved:
		return "interleaved"
	case Blocked:
		return "blocked"
	case SingleHome:
		return "singlehome"
	default:
		return fmt.Sprintf("HomePolicy(%d)", uint8(h))
	}
}

// Region is a contiguous allocation in the global address space with
// uniform policy attributes.  Regions are created before the machine is
// frozen and are immutable afterwards except for the protocol's private
// Attr field.
type Region struct {
	Name string
	Base Addr
	Size uint64

	Kind Kind
	Home HomePolicy
	// HomeNode is the home for SingleHome regions.
	HomeNode int

	// Reconciler, when non-nil, overrides the kind's default
	// reconciliation function for this region.  It is declared as an
	// opaque interface here to keep memsys at the bottom of the package
	// graph; internal/core defines the concrete Reconciler type and
	// performs the type assertion.
	Reconciler any

	// ConflictCheck enables Section 7.2/7.3 semantic-violation detection
	// for this region: multiple writers of one word, and read/write
	// copy co-existence, are recorded at reconcile time.
	ConflictCheck bool

	// FlushReads, with ConflictCheck, makes reconciliation invalidate
	// all read-only copies of the region so every phase's reads fault
	// and are observed ("actual" rather than "potential" violation
	// detection).
	FlushReads bool

	// StalePhases is, for KindStale regions, the number of reconcile
	// phases a consumer copy may survive before it must be refreshed.
	StalePhases int

	firstBlock BlockID
	nBlocks    uint32
	as         *AddressSpace
}

// End returns the first address past the region.
func (r *Region) End() Addr { return r.Base + Addr(r.Size) }

// Contains reports whether a lies inside the region.
func (r *Region) Contains(a Addr) bool { return a >= r.Base && a < r.End() }

// FirstBlock returns the region's first block.
func (r *Region) FirstBlock() BlockID { return r.firstBlock }

// NumBlocks returns the number of blocks spanned by the region.
func (r *Region) NumBlocks() uint32 { return r.nBlocks }

// AddressSpace is the machine-wide global memory: the allocator, the
// region table, the home map, and the home ("main memory") image of every
// block.  All allocation happens before Freeze; afterwards the structure
// is immutable and safe for concurrent readers, except for the home image
// bytes which protocols mutate under per-block locks.
type AddressSpace struct {
	P          int
	BlockSize  uint32
	blockShift uint
	frozen     bool

	next    Addr
	regions []*Region

	// home[b] is the home node of block b, built at Freeze.
	home []int32
	// rehomed, when non-nil, overrides home for degraded-mode recovery:
	// rehomed[b] == rehomeNone means "use home[b]", anything else is the
	// migrated home.  Allocated lazily by Rehome so the fault-free HomeOf
	// fast path costs one nil check.  Mutated only while the machine is
	// quiescent at a deterministic point (a single running node under the
	// deterministic scheduler).
	rehomed []int32
	// regionOf[b] is the index into regions of block b's region.
	regionOf []uint16
	// data is the home image, indexed by Addr.
	data []byte
}

// rehomeNone marks a block whose home has not migrated.
const rehomeNone = int32(-1)

// NewAddressSpace creates an address space for p nodes with the given
// block size (a power of two, at least 8 bytes).
func NewAddressSpace(p int, blockSize uint32) *AddressSpace {
	if p < 1 {
		panic(fmt.Sprintf("memsys: node count %d out of range", p))
	}
	if blockSize < 8 || bits.OnesCount32(blockSize) != 1 {
		panic(fmt.Sprintf("memsys: block size %d must be a power of two >= 8", blockSize))
	}
	return &AddressSpace{
		P:          p,
		BlockSize:  blockSize,
		blockShift: uint(bits.TrailingZeros32(blockSize)),
	}
}

// Alloc reserves a region of size bytes with the given policies.  The
// region is block-aligned and padded to a whole number of blocks so that
// distinct regions never share a block.  Alloc panics after Freeze.
func (as *AddressSpace) Alloc(name string, size uint64, kind Kind, home HomePolicy) *Region {
	return as.AllocAt(name, size, kind, home, 0)
}

// AllocAt is Alloc with an explicit home node for SingleHome regions.
func (as *AddressSpace) AllocAt(name string, size uint64, kind Kind, home HomePolicy, homeNode int) *Region {
	if as.frozen {
		panic("memsys: Alloc after Freeze")
	}
	if size == 0 {
		panic("memsys: zero-size region " + name)
	}
	if homeNode < 0 || homeNode >= as.P {
		panic(fmt.Sprintf("memsys: home node %d out of range", homeNode))
	}
	bs := uint64(as.BlockSize)
	padded := (size + bs - 1) / bs * bs
	r := &Region{
		Name:       name,
		Base:       as.next,
		Size:       padded,
		Kind:       kind,
		Home:       home,
		HomeNode:   homeNode,
		firstBlock: BlockID(uint64(as.next) >> as.blockShift),
		nBlocks:    uint32(padded / bs),
		as:         as,
	}
	as.next += Addr(padded)
	as.regions = append(as.regions, r)
	return r
}

// Freeze finalizes the address space: it materializes the home map, the
// region lookup table and the home data image.  After Freeze no further
// allocation is permitted.
func (as *AddressSpace) Freeze() {
	if as.frozen {
		return
	}
	as.frozen = true
	n := as.NumBlocks()
	as.home = make([]int32, n)
	as.regionOf = make([]uint16, n)
	as.data = make([]byte, uint64(as.next))
	if len(as.regions) > 1<<16 {
		panic("memsys: too many regions")
	}
	for ri, r := range as.regions {
		for i := uint32(0); i < r.nBlocks; i++ {
			b := r.firstBlock + BlockID(i)
			as.regionOf[b] = uint16(ri)
			as.home[b] = int32(r.homeOf(i, as.P))
		}
	}
}

// homeOf computes the home node for the i-th block of the region.
func (r *Region) homeOf(i uint32, p int) int {
	switch r.Home {
	case Interleaved:
		return int(i) % p
	case Blocked:
		per := (r.nBlocks + uint32(p) - 1) / uint32(p)
		h := int(i / per)
		if h >= p {
			h = p - 1
		}
		return h
	case SingleHome:
		return r.HomeNode
	default:
		panic("memsys: unknown home policy")
	}
}

// NumBlocks returns the total number of blocks allocated so far.
func (as *AddressSpace) NumBlocks() uint32 {
	return uint32(uint64(as.next) >> as.blockShift)
}

// Block returns the block containing a.
func (as *AddressSpace) Block(a Addr) BlockID {
	return BlockID(uint64(a) >> as.blockShift)
}

// Split returns the block containing a and a's byte offset within it.
func (as *AddressSpace) Split(a Addr) (BlockID, uint32) {
	return BlockID(uint64(a) >> as.blockShift), uint32(a) & (as.BlockSize - 1)
}

// HomeOf returns the effective home node of block b — the Freeze-time
// home unless degraded-mode recovery migrated it.  Valid after Freeze.
func (as *AddressSpace) HomeOf(b BlockID) int {
	if as.rehomed != nil {
		if h := as.rehomed[b]; h != rehomeNone {
			return int(h)
		}
	}
	return int(as.home[b])
}

// BaseHomeOf returns the Freeze-time home of block b, ignoring any
// degraded-mode migration.
func (as *AddressSpace) BaseHomeOf(b BlockID) int { return int(as.home[b]) }

// Rehome migrates every block whose effective home is `from` to node
// `to`, returning the number of blocks moved.  It implements degraded-
// mode recovery: a node declared dead hands its home responsibility —
// directory authority and the charging destination for fetches, flushes
// and merges — to a live peer.  The home image itself needs no copy in
// the simulator (data is a global array indexed by block), which models
// the recovering peer adopting the dead node's memory pages.
//
// Call only at a deterministic quiescent point: under the deterministic
// scheduler with the calling node holding the token, so no reader can
// observe a half-migrated map.
func (as *AddressSpace) Rehome(from, to int) int64 {
	if !as.frozen {
		panic("memsys: Rehome before Freeze")
	}
	if from == to || from < 0 || from >= as.P || to < 0 || to >= as.P {
		panic(fmt.Sprintf("memsys: Rehome(%d, %d) invalid for P=%d", from, to, as.P))
	}
	if as.rehomed == nil {
		as.rehomed = make([]int32, len(as.home))
		for i := range as.rehomed {
			as.rehomed[i] = rehomeNone
		}
	}
	var moved int64
	for b := range as.home {
		if as.HomeOf(BlockID(b)) == from {
			as.rehomed[b] = int32(to)
			moved++
		}
	}
	return moved
}

// RegionOfBlock returns the region owning block b.  Valid after Freeze.
func (as *AddressSpace) RegionOfBlock(b BlockID) *Region {
	return as.regions[as.regionOf[b]]
}

// RegionOf returns the region containing address a, or nil if a is
// unallocated.  Works before Freeze (binary search over regions).
func (as *AddressSpace) RegionOf(a Addr) *Region {
	if as.frozen {
		if a >= as.next {
			return nil
		}
		return as.RegionOfBlock(as.Block(a))
	}
	i := sort.Search(len(as.regions), func(i int) bool { return as.regions[i].End() > a })
	if i < len(as.regions) && as.regions[i].Contains(a) {
		return as.regions[i]
	}
	return nil
}

// Regions returns the region table (do not mutate).
func (as *AddressSpace) Regions() []*Region { return as.regions }

// HomeData returns the home ("main memory") image of block b.  Protocol
// handlers mutate it while a run is under way; initialization code may write
// it freely before the machine starts running.  A tempest home line (any
// line but an LCM protocol's copy of a loosely coherent block) is this slice
// itself, so a write to it is seen by every node holding the block.
func (as *AddressSpace) HomeData(b BlockID) []byte {
	base := uint64(b) << as.blockShift
	return as.data[base : base+uint64(as.BlockSize) : base+uint64(as.BlockSize)]
}

// HomeBytes exposes the raw home image for a byte range, for sequential
// initialization and verification outside the protocol (for example,
// loading the initial mesh and checking final answers), and for tempest's
// span run path, which moves a run of permitted home lines in one copy.
func (as *AddressSpace) HomeBytes(a Addr, n int) []byte {
	return as.data[a : a+Addr(n)]
}
