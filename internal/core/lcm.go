// Package core implements the paper's contribution: the Reconcilable
// Shared Memory (RSM) model and its Loosely Coherent Memory (LCM)
// instance.
//
// RSM generalizes cache-coherent shared memory by placing two points of a
// coherence protocol under program control (Section 3):
//
//  1. the action taken when a processor requests a copy of a block
//     (the request policy), and
//  2. the way multiple outstanding copies of a block are brought back into
//     agreement (the reconciliation function).
//
// Unlike conventional shared memory, RSM places no restriction on multiple
// outstanding writable copies.  LCM exploits that freedom to implement
// C**'s "atomic and simultaneous" parallel-function semantics: a write to
// shared data creates a private copy of the containing block
// (copy-on-write after MarkModification), memory becomes intentionally
// inconsistent for the duration of the parallel call, and a global
// ReconcileCopies merges all private modifications back into a single
// coherent state using the region's reconciliation function.
//
// Two variants are implemented, matching the paper's measurements:
//
//   - LCM-scc keeps a single clean copy of each marked block at the
//     block's home; after a FlushCopies the flushing node's copy is
//     invalidated, so reuse re-fetches from home.
//   - LCM-mcc additionally keeps a clean copy on every processor that
//     marks the block; FlushCopies reverts the cached copy to the local
//     clean copy, so spatial/temporal reuse between invocations hits.
//
// Accesses to regions of kind memsys.KindCoherent fall through to an
// embedded Stache protocol, so a single machine mixes loosely coherent and
// sequentially consistent data exactly as the C** compiler requires.
package core

import (
	"bytes"
	"fmt"
	"math/bits"

	"lcm/internal/memsys"
	"lcm/internal/net"
	"lcm/internal/nodeset"
	"lcm/internal/stache"
	"lcm/internal/tempest"
	"lcm/internal/trace"
)

// Variant selects the clean-copy placement policy.
type Variant uint8

const (
	// SCC: single clean copy, kept at the block's home node.
	SCC Variant = iota
	// MCC: multiple clean copies, one at every processor that marks the
	// block, in addition to the home's.
	MCC
)

func (v Variant) String() string {
	if v == MCC {
		return "lcm-mcc"
	}
	return "lcm-scc"
}

// entry is the home-side LCM directory record for one block; the phase
// fields are lazily reset when gen is stale.
type entry struct {
	// sharers is the set of nodes currently holding read-only copies.
	// It persists across phases (unmodified blocks keep their copies).
	sharers nodeset.Set

	// gen is the reconcile phase for which the fields below are valid.
	gen uint32

	// readers is the set of nodes that faulted a read this phase
	// (tracked only for conflict-checked regions).
	readers nodeset.Set
	// writers is the set of nodes that returned modified elements.
	writers nodeset.Set
	// written is the per-element modified bitmask (elements, not nodes:
	// a block holds at most 64 four-byte words, so this stays a word).
	written uint64

	// pending is the merge image for the phase; hasPending records
	// whether it is live (the buffer itself is reused across phases).
	// While live, pending doubles as the home's "clean copy" ledger
	// entry: its creation is the clean-copy event of Table 1.
	pending    []byte
	hasPending bool
	// regSeq is non-zero while the block is on its home's dirty list: its
	// place in the phase's registration order.
	regSeq uint32
}

// nodeState is the per-node LCM state: the blocks marked since the last
// flush.  Stored in tempest.Node.PD.
type nodeState struct {
	marked []memsys.BlockID
}

// ConflictKind distinguishes the two semantic violations LCM can detect.
type ConflictKind uint8

const (
	// WriteWrite: two processors wrote different values to one element.
	WriteWrite ConflictKind = iota
	// ReadWrite: readable and written copies of a block were
	// simultaneously outstanding in one phase.
	ReadWrite
)

func (k ConflictKind) String() string {
	if k == ReadWrite {
		return "read-write"
	}
	return "write-write"
}

// Conflict describes one detected semantic violation (Sections 7.2/7.3).
type Conflict struct {
	Kind    ConflictKind
	Block   memsys.BlockID
	Elem    int         // element index within the block (WriteWrite only)
	Region  string      // region name
	Writers nodeset.Set // writer set at detection time
	Readers nodeset.Set // reader set (ReadWrite only)
}

func (c Conflict) String() string {
	return fmt.Sprintf("%s conflict in %q block %d elem %d (writers %v readers %v)",
		c.Kind, c.Region, c.Block, c.Elem, c.Writers, c.Readers)
}

// conflictLog collects detected violations.
type conflictLog struct {
	list  []Conflict
	limit int
}

func (cl *conflictLog) add(c Conflict) {
	if cl.limit == 0 || len(cl.list) < cl.limit {
		cl.list = append(cl.list, c)
	}
}

// CommitMode selects how reconciliation commits pending images.
type CommitMode uint8

const (
	// CommitHomeParallel: each home commits its own blocks inside the
	// reconciliation barrier window — reconciliation work is spread
	// across the machine (the default, and the reason Section 5.1's
	// feared bottleneck does not materialize).
	CommitHomeParallel CommitMode = iota
	// CommitSerial: one node commits every block.  Provided for the
	// ablation that makes the Section 5.1 bottleneck visible; a real
	// system would never choose it.
	CommitSerial
)

// LCM is the Loosely Coherent Memory protocol.
type LCM struct {
	m        *tempest.Machine
	variant  Variant
	commit   CommitMode
	coherent *stache.Protocol

	entries []entry
	phase   uint32

	// dirty[h] lists the blocks homed at h that are registered for commit
	// at the next reconciliation, in registration order: the order of the
	// grants their marks ran in.
	// Commit walks the list front to back, so its invalidations go out in
	// that order.  registrations numbers the phase's registrations
	// (entry.regSeq), which lets Rehome merge two lists into one.
	dirty         [][]memsys.BlockID
	registrations uint32

	conflicts conflictLog
}

// New creates an LCM protocol instance of the given variant.
func New(v Variant) *LCM {
	return &LCM{variant: v, coherent: stache.New(), conflicts: conflictLog{limit: 1024}}
}

// SetCommitMode selects the reconciliation commit strategy.  Call before
// the machine runs.
func (p *LCM) SetCommitMode(m CommitMode) { p.commit = m }

// Name implements tempest.Protocol.
func (p *LCM) Name() string { return p.variant.String() }

// Variant returns the clean-copy placement policy.

// Phase returns the current reconcile-phase generation.
func (p *LCM) Phase() uint32 { return p.phase }

// Conflicts returns the violations detected so far (conflict-checked
// regions only), in detection order: the order of the grants that detected
// them.  Call only while the machine is quiescent.
func (p *LCM) Conflicts() []Conflict {
	out := make([]Conflict, len(p.conflicts.list))
	copy(out, p.conflicts.list)
	return out
}

// Attach implements tempest.Protocol.
func (p *LCM) Attach(m *tempest.Machine) {
	if m.AS.BlockSize > 256 {
		// The per-element written mask tracks at most 64 four-byte
		// words per block.  A config error (not a panic) so the run
		// fails gracefully through Machine.RunErr, per the tempest
		// error-path convention.
		m.RecordConfigError(fmt.Errorf(
			"core: block size %d exceeds 256 bytes (the per-element modified bitmask tracks at most 64 words per block)",
			m.AS.BlockSize))
	}
	p.m = m
	p.entries = make([]entry, m.AS.NumBlocks())
	// P > 64 spills the directory copysets past their inline word; carve
	// the spill storage from one arena so the directory stays a handful
	// of allocations at any machine size.
	if ar := nodeset.NewArena(m.P - 1); ar.Words() > 0 {
		for i := range p.entries {
			e := &p.entries[i]
			e.sharers = ar.Make()
			e.readers = ar.Make()
			e.writers = ar.Make()
		}
	}
	p.dirty = make([][]memsys.BlockID, m.P)
	p.phase = 1
	for _, n := range m.Nodes {
		n.PD = &nodeState{}
	}
	// Resolve default reconcilers per region so the flush path never
	// branches on nil.
	for _, r := range m.AS.Regions() {
		if r.Reconciler == nil {
			switch r.Kind {
			case memsys.KindReduction:
				panic(fmt.Sprintf("core: reduction region %q needs a Reconciler", r.Name))
			default:
				r.Reconciler = Overwrite{}
			}
		}
		if _, ok := r.Reconciler.(Reconciler); !ok {
			panic(fmt.Sprintf("core: region %q Reconciler does not implement core.Reconciler", r.Name))
		}
	}
	p.coherent.Attach(m)
}

func (p *LCM) state(n *tempest.Node) *nodeState { return n.PD.(*nodeState) }

// phaseEntry returns b's entry with its phase fields valid for ph.
func (p *LCM) phaseEntry(b memsys.BlockID, ph uint32) *entry {
	e := &p.entries[b]
	if e.gen != ph {
		e.gen = ph
		e.readers.Clear()
		e.writers.Clear()
		e.written = 0
		e.hasPending = false
		e.regSeq = 0
	}
	return e
}

// The LCM-region handlers below — ReadFault, mark, flushBlock, Evict — are
// each one body in two halves (tempest's effects.go has the contract).  The
// local half is everything the faulting node can do by itself: between two
// reconciliations the home image of a loosely coherent block is constant,
// so installing from it needs nobody's permission.  The shared half is a
// tempest.Effect of one of these kinds, applied by ApplyEffect, and the
// handler's message to the home (Node.Send), whose price depends on the
// traffic before it: both happen on the spot, or — when the machine runs
// ahead — later, at the handler's position in the grant order.
const (
	fxRead  uint8 = iota // a node took a read-only copy
	fxMark               // a node took a private copy from home
	fxFlush              // a node returned a private copy; Data is the copy, Mask its modified elements
	fxEvict              // a node dropped a read-only copy
)

// chargeMiss charges the requester's side of the data-carrying fetch of the
// handler that emitted fx, like Stache does; the home's side is chargeHome,
// in the effect.
func (p *LCM) chargeMiss(n *tempest.Node, fx *tempest.Effect, home int) {
	m := p.m
	n.Ctr.Misses++
	if home == n.ID {
		n.Charge(m.Cost.LocalFill)
		n.Ctr.LocalFills++
		return
	}
	n.Send(fx, net.ClassRoundTrip, home, int64(m.AS.BlockSize))
	n.Ctr.RemoteMisses++
}

// chargeHome steals c handler cycles from b's home on n's behalf; a node
// that is its own home has already paid in full.
func (p *LCM) chargeHome(n *tempest.Node, b memsys.BlockID, c int64) {
	if home := p.m.AS.HomeOf(b); home != n.ID {
		p.m.Nodes[home].ChargeRemote(c)
	}
}

// ApplyEffect implements tempest.EffectApplier: the shared half of the
// handler that node n ran for block fx.Block.
func (p *LCM) ApplyEffect(n *tempest.Node, fx *tempest.Effect) {
	b := fx.Block
	c := p.m.Cost
	p.m.Lock(b)
	switch fx.Kind {
	case fxRead:
		e := p.phaseEntry(b, p.phase)
		e.sharers.Add(n.ID)
		if p.m.AS.RegionOfBlock(b).ConflictCheck {
			e.readers.Add(n.ID)
		}
		p.chargeHome(n, b, c.HomeOccupancy)
	case fxMark:
		e := p.phaseEntry(b, p.phase)
		// First mark of this block in this phase: the home creates its
		// clean copy (the pending merge image starts as a copy of the
		// pre-phase value) and registers the block for commit at
		// reconciliation.
		if !e.hasPending {
			if e.pending == nil {
				e.pending = n.BlockBuf() // carved from the marking node's arena
			}
			copy(e.pending, p.m.AS.HomeData(b))
			e.hasPending = true
			p.m.Shared.CleanCopiesHome++
		}
		if e.regSeq == 0 {
			p.registrations++
			e.regSeq = p.registrations
			home := p.m.AS.HomeOf(b)
			p.dirty[home] = append(p.dirty[home], b)
		}
		// A private writer is no longer a read-only sharer.
		e.sharers.Remove(n.ID)
		p.chargeHome(n, b, c.HomeOccupancy)
	case fxFlush:
		e := &p.entries[b]
		if !e.hasPending || e.gen != p.phase {
			panic(fmt.Sprintf("core: flush of block %d with no pending image", b))
		}
		r := p.m.AS.RegionOfBlock(b)
		rec := r.Reconciler.(Reconciler)
		es := rec.ElemSize()
		clean := p.m.AS.HomeData(b)
		// Ascending element order, exactly once per modified element.
		for mask := fx.Mask; mask != 0; mask &= mask - 1 {
			p.mergeElem(n, b, e, r, rec, es, fx.Data, clean, uint32(bits.TrailingZeros64(mask))*es)
		}
		if fx.Mask != 0 {
			e.writers.Add(n.ID)
		}
		if p.variant == MCC {
			// The flusher reverted to its clean copy and reads on.
			e.sharers.Add(n.ID)
		}
		p.chargeHome(n, b, c.FlushOccupancy+int64(bits.OnesCount64(fx.Mask))*c.MergePerWord)
	case fxEvict:
		p.entries[b].sharers.Remove(n.ID)
	}
}

// ReadFault implements tempest.Protocol: obtain a read-only copy carrying
// the pre-phase (clean) value of the block.
func (p *LCM) ReadFault(n *tempest.Node, b memsys.BlockID) *tempest.Line {
	r := p.m.AS.RegionOfBlock(b)
	if r.Kind == memsys.KindCoherent {
		return p.coherent.ReadFault(n, b)
	}
	ph := p.phase
	fx := n.EnterHandler(b) // deterministic handler-entry order (see internal/sched)
	// The home image is not updated until reconciliation commits, so it
	// is the clean (pre-phase) value throughout the parallel phase.
	l := n.Install(b, p.m.AS.HomeData(b), tempest.TagReadOnly)
	l.Gen = ph
	fx.Kind = fxRead
	n.Emit(fx)
	p.chargeMiss(n, fx, p.m.AS.HomeOf(b))
	if t := p.m.Trace; t != nil {
		t.Record(n.ID, n.Clock(), trace.ReadMiss, uint32(b), 0)
	}
	return l
}

// WriteFault implements tempest.Protocol.  A store to a loosely coherent
// block with no private copy is the copy-on-write trigger: it behaves as an
// implicit MarkModification (the "memory system detects the unusual case"
// path of the paper's conclusion).
func (p *LCM) WriteFault(n *tempest.Node, b memsys.BlockID) *tempest.Line {
	r := p.m.AS.RegionOfBlock(b)
	if r.Kind == memsys.KindCoherent {
		return p.coherent.WriteFault(n, b)
	}
	return p.mark(n, b)
}

// MarkModification implements tempest.Protocol: create an inconsistent,
// writable private copy of the block containing addr (Section 5.1).
func (p *LCM) MarkModification(n *tempest.Node, addr memsys.Addr) {
	b := p.m.AS.Block(addr)
	r := p.m.AS.RegionOfBlock(b)
	if r.Kind == memsys.KindCoherent {
		p.coherent.MarkModification(n, addr)
		return
	}
	p.mark(n, b)
}

// mark is the common MarkModification/copy-on-write path.
func (p *LCM) mark(n *tempest.Node, b memsys.BlockID) *tempest.Line {
	ph := p.phase
	c := p.m.Cost
	n.Ctr.Marks++
	l := n.Line(b)

	// Already private this phase: the directive is a cheap tag check.
	if l != nil && l.Tag() == tempest.TagPrivate && l.Gen == ph {
		n.Charge(c.MarkLocal)
		return l
	}

	// LCM-mcc fast path: a local clean copy from this phase lets the
	// node re-create its private copy without contacting home.
	if p.variant == MCC && l != nil && l.Tag() == tempest.TagReadOnly &&
		l.Clean != nil && l.CleanGen == ph {
		l.SetTag(tempest.TagPrivate)
		l.WMask = 0
		n.Charge(c.MarkLocal)
		p.noteMarked(n, l, b)
		return l
	}

	home := p.m.AS.HomeOf(b)
	fx := n.EnterHandler(b) // deterministic handler-entry order (see internal/sched)
	fx.Kind = fxMark
	n.Emit(fx)

	if l != nil && l.Tag() >= tempest.TagReadOnly {
		// Upgrade in place: the cached data is the pre-phase value.
		l.SetTag(tempest.TagPrivate)
		n.Ctr.Upgrades++
		if home == n.ID {
			n.Charge(c.MarkLocal)
		} else {
			n.Send(fx, net.ClassUpgrade, home, 0)
		}
	} else {
		// Fetch the clean value from home.
		l = n.Install(b, p.m.AS.HomeData(b), tempest.TagPrivate)
		p.chargeMiss(n, fx, home)
	}
	l.Gen = ph
	l.WMask = 0
	if p.variant == MCC {
		if l.Clean == nil {
			l.Clean = n.BlockBuf()
		}
		copy(l.Clean, l.Data)
		l.CleanGen = ph
		p.m.Shared.CleanCopiesLocal++
	}
	p.noteMarked(n, l, b)
	if t := p.m.Trace; t != nil {
		t.Record(n.ID, n.Clock(), trace.Mark, uint32(b), 0)
	}
	return l
}

// noteMarked puts b on the node's marked list exactly once per mark epoch.
func (p *LCM) noteMarked(n *tempest.Node, l *tempest.Line, b memsys.BlockID) {
	if !l.Marked {
		l.Marked = true
		st := p.state(n)
		st.marked = append(st.marked, b)
	}
}

// FlushCopies implements tempest.Protocol: return every private-modified
// block to its home for partial reconciliation, so the next invocation on
// this node cannot observe this invocation's writes (Section 5.1).
func (p *LCM) FlushCopies(n *tempest.Node) {
	st := p.state(n)
	if len(st.marked) == 0 {
		return
	}
	for _, b := range st.marked {
		p.flushBlock(n, b)
	}
	st.marked = st.marked[:0]
}

// flushBlock diffs one private copy against the clean value, sends the
// modified elements home to be merged into the pending image, and releases
// or reverts the private copy according to the variant.
func (p *LCM) flushBlock(n *tempest.Node, b memsys.BlockID) {
	l := n.Line(b)
	if l == nil || l.Tag() != tempest.TagPrivate || !l.Marked {
		panic(fmt.Sprintf("core: node %d flushing block %d which is not private-marked", n.ID, b))
	}
	r := p.m.AS.RegionOfBlock(b)
	es := r.Reconciler.(Reconciler).ElemSize()
	home := p.m.AS.HomeOf(b)
	c := p.m.Cost

	// Every post-yield path charges at least a local fill or a network
	// flush, so the full fault floor holds (the no-pending path panics).
	fx := n.EnterHandler(b) // deterministic handler-entry order (see internal/sched)
	fx.Kind = fxFlush
	fx.Mask = modifiedElems(l, p.m.AS.HomeData(b), es, r.ConflictCheck)
	copy(fx.Data, l.Data)
	words := int64(bits.OnesCount64(fx.Mask))
	l.WMask = 0
	n.Ctr.Flushes++
	n.Ctr.WordsFlushed += words * int64(es/4)

	switch p.variant {
	case SCC:
		// Single clean copy at home: drop the private copy; reuse
		// re-fetches the clean value from home.
		l.SetTag(tempest.TagInvalid)
	case MCC:
		// Revert to the local clean copy; the node keeps a readable
		// pre-phase copy without re-fetching.
		copy(l.Data, l.Clean)
		l.SetTag(tempest.TagReadOnly)
	}
	l.Marked = false
	n.Emit(fx)

	if t := p.m.Trace; t != nil {
		t.Record(n.ID, n.Clock(), trace.Flush, uint32(b), int32(words))
	}
	if home == n.ID {
		n.Charge(c.LocalFill + words*c.MergePerWord)
	} else {
		// One-way message carrying the modified elements; the network
		// charges the fixed send cost plus payload bandwidth.
		n.Send(fx, net.ClassFlush, home, words*int64(es))
	}
}

// modifiedElems returns the set of es-byte elements of private copy l that
// go home in a flush, as a bitmask by element index.  An element is
// modified when its value differs from the clean copy, or — in
// conflict-checked regions, which track stores at word granularity
// (footnote 2) — when it was stored to at all, even with an unchanged
// value.
func modifiedElems(l *tempest.Line, clean []byte, es uint32, conflictCheck bool) uint64 {
	var mask uint64
	bs := uint32(len(clean))
	if !conflictCheck && (es == 4 || es == 8) {
		// The common case (no store-granularity tracking): most of a
		// flushed block is untouched, so compare eight bytes at a time and
		// look closer only around actual modifications.
		d64, c64 := memsys.View[uint64](l.Data), memsys.View[uint64](clean)
		d32, c32 := memsys.View[uint32](l.Data), memsys.View[uint32](clean)
		for i, w := range d64 {
			if w == c64[i] {
				continue
			}
			if es == 8 {
				mask |= 1 << i
				continue
			}
			for j := 2 * i; j < 2*i+2; j++ {
				if d32[j] != c32[j] {
					mask |= 1 << j
				}
			}
		}
		return mask
	}
	for off := uint32(0); off < bs; off += es {
		stored := false
		if conflictCheck {
			for w := off / 4; w < (off+es)/4; w++ {
				if l.WMask&(1<<w) != 0 {
					stored = true
				}
			}
		}
		if stored || !bytes.Equal(l.Data[off:off+es], clean[off:off+es]) {
			mask |= 1 << (off / es)
		}
	}
	return mask
}

// mergeElem folds the modified element at byte offset off of node n's
// returned copy data into the pending image of block b, with conflict
// detection and accounting.  The caller invokes mergeElem in ascending
// offset order, exactly once per modified element.
func (p *LCM) mergeElem(n *tempest.Node, b memsys.BlockID, e *entry, r *memsys.Region, rec Reconciler, es uint32, data, clean []byte, off uint32) {
	idx := off / es
	prior := e.written&(1<<idx) != 0
	conflict := rec.Merge(e.pending[off:off+es], data[off:off+es], clean[off:off+es], prior)
	if r.ConflictCheck && prior {
		// Store granularity: any second modifier of an element in one
		// phase is a violation, value-equal or not.
		conflict = true
	}
	if conflict {
		p.m.Shared.WriteConflicts++
		if t := p.m.Trace; t != nil {
			t.Record(n.ID, n.Clock(), trace.Conflict, uint32(b), int32(idx))
		}
		if r.ConflictCheck {
			// Cold path: the log snapshot clones the live writer set.
			writers := e.writers.Clone()
			writers.Add(n.ID)
			p.conflicts.add(Conflict{
				Kind: WriteWrite, Block: b, Elem: int(idx),
				Region: r.Name, Writers: writers,
			})
		}
	}
	e.written |= 1 << idx
}

// Evict implements tempest.Protocol.  Private-modified copies must not be
// lost — the paper's Stache exists precisely to back them with local
// memory — so eviction refuses them; read-only copies of loose regions are
// dropped after the home forgets the sharer.  Coherent regions delegate to
// the embedded Stache.
func (p *LCM) Evict(n *tempest.Node, b memsys.BlockID) bool {
	r := p.m.AS.RegionOfBlock(b)
	if r.Kind == memsys.KindCoherent {
		return p.coherent.Evict(n, b)
	}
	l := n.Line(b)
	if l == nil || l.Tag() == tempest.TagInvalid {
		return true
	}
	if l.Tag() == tempest.TagPrivate {
		return false
	}
	fx := n.EnterHandler(b) // deterministic handler-entry order (see internal/sched)
	fx.Kind = fxEvict
	n.Emit(fx) // the home forgets the sharer
	l.SetTag(tempest.TagInvalid)
	n.Charge(p.m.Cost.MarkLocal)
	return true
}

// ReconcileCopies implements tempest.Protocol: the global reconciliation
// barrier (Section 5.1).  Every node flushes its remaining private copies,
// the homes commit pending images in parallel and invalidate outstanding
// copies of modified blocks, and memory returns to a coherent state.
func (p *LCM) ReconcileCopies(n *tempest.Node) {
	ph := p.phase
	p.FlushCopies(n)
	n.Barrier()
	switch p.commit {
	case CommitSerial:
		// Ablation mode: node 0 performs every home's commit work and
		// is charged for all of it; the barrier then propagates the
		// serialized time to everyone (the Section 5.1 bottleneck).
		if n.ID == 0 {
			for home := 0; home < p.m.P; home++ {
				p.commitLists(n, home, ph)
			}
		}
	default:
		p.commitHome(n, ph)
	}
	if n.ID == 0 {
		p.phase = ph + 1
		p.registrations = 0 // every list has been, or is being, drained
	}
	n.Barrier()
}

// commitHome commits every registered block homed at n.  It runs inside
// the reconciliation barrier window: no node is in a parallel phase, so
// revoking their lines cannot be observed mid-phase, and distinct homes own
// disjoint blocks.
func (p *LCM) commitHome(n *tempest.Node, ph uint32) {
	p.commitLists(n, n.ID, ph)
}

// Rehome implements tempest.Rehomer for degraded-mode recovery: blocks
// homed at `from` have just migrated to `to` (memsys.Rehome), so the
// pending entries of from's dirty list — registered before the migration
// but not yet committed — must move to the adopter's list, or the next
// reconciliation would never commit them (commitHome drains each node's
// own list, and the dead node's is now authoritative for nothing).  The
// two lists merge by registration order, so the adopter commits — and an
// order-sensitive interconnect prices its invalidations — as one home that
// had owned all the blocks from the start would.
// Called from the dying node's goroutine at a deterministic point where
// no node is inside the reconciliation window.
func (p *LCM) Rehome(from, to int) {
	moved := p.dirty[from]
	p.dirty[from] = moved[:0]
	if len(moved) == 0 {
		return
	}
	own := p.dirty[to]
	merged := make([]memsys.BlockID, 0, len(own)+len(moved))
	for len(own) > 0 && len(moved) > 0 {
		if p.entries[own[0]].regSeq < p.entries[moved[0]].regSeq {
			merged, own = append(merged, own[0]), own[1:]
		} else {
			merged, moved = append(merged, moved[0]), moved[1:]
		}
	}
	p.dirty[to] = append(append(merged, own...), moved...)
}

// commitLists commits the dirty list of the given home, charging the work
// to n's clock.
func (p *LCM) commitLists(n *tempest.Node, home int, ph uint32) {
	c := p.m.Cost
	list := p.dirty[home]
	p.dirty[home] = list[:0]

	for _, b := range list {
		e := &p.entries[b]
		if e.gen != ph || e.regSeq == 0 {
			continue
		}
		r := p.m.AS.RegionOfBlock(b)
		if !e.writers.Empty() {
			copy(p.m.AS.HomeData(b), e.pending)
			p.m.Shared.Reconciles++
			n.Charge(c.LocalFill)
			if t := p.m.Trace; t != nil {
				t.Record(n.ID, n.Clock(), trace.Commit, uint32(b), int32(bits.OnesCount64(e.written)))
			}
			if r.ConflictCheck && !e.readers.SubsetOf(&e.writers) {
				p.m.Shared.ReadWriteConflicts++
				pureReaders := e.readers.Clone()
				pureReaders.Subtract(&e.writers)
				p.conflicts.add(Conflict{
					Kind: ReadWrite, Block: b, Region: r.Name,
					Writers: e.writers.Clone(), Readers: pureReaders,
				})
			}
			p.invalidateOutstanding(n, b, e, r, ph)
		}
		e.hasPending = false
		e.regSeq = 0
	}

	// Actual-violation mode: flush every read-only copy of checked
	// regions so the next phase's reads fault and are observed
	// (the paper's "all read-only cache blocks must be flushed at
	// synchronization points").
	for _, r := range p.m.AS.Regions() {
		if !r.ConflictCheck || !r.FlushReads {
			continue
		}
		for i := uint32(0); i < r.NumBlocks(); i++ {
			b := r.FirstBlock() + memsys.BlockID(i)
			if p.m.AS.HomeOf(b) != home {
				continue
			}
			e := &p.entries[b]
			p.invalidateAllSharers(n, b, e)
		}
	}
}

// invalidateOutstanding removes outstanding read-only copies of a modified
// block, honoring the stale-data policy (Section 7.5): copies of a
// KindStale region younger than StalePhases survive the commit.
func (p *LCM) invalidateOutstanding(n *tempest.Node, b memsys.BlockID, e *entry, r *memsys.Region, ph uint32) {
	// Members are dropped in place while the fan-out walks them —
	// nodeset.Iter snapshots each word before popping its bits, so
	// removing the member just visited is safe and the ascending charge
	// order matches the historical flat-mask loop exactly.
	sent := int64(0)
	for it := e.sharers.Iter(); ; {
		id, ok := it.Next()
		if !ok {
			break
		}
		l := p.m.Nodes[id].Line(b)
		if l == nil {
			e.sharers.Remove(id)
			continue
		}
		if r.Kind == memsys.KindStale && ph-l.Gen < uint32(r.StalePhases) {
			continue // stale policy: the young copy survives the commit
		}
		e.sharers.Remove(id)
		l.SetTag(tempest.TagInvalid)
		n.Charge(p.m.Net.Invalidate(n.ID, id, n.Clock(), &n.Ctr.Net))
		sent++
	}
	n.Ctr.InvalidationsSent += sent
}

// invalidateAllSharers drops every read-only copy of b.
func (p *LCM) invalidateAllSharers(n *tempest.Node, b memsys.BlockID, e *entry) {
	for it := e.sharers.Iter(); ; {
		id, ok := it.Next()
		if !ok {
			break
		}
		if l := p.m.Nodes[id].Line(b); l != nil {
			l.SetTag(tempest.TagInvalid)
		}
		n.Ctr.InvalidationsSent++
		n.Charge(p.m.Net.Invalidate(n.ID, id, n.Clock(), &n.Ctr.Net))
	}
	e.sharers.Clear()
}

var _ tempest.Protocol = (*LCM)(nil)
