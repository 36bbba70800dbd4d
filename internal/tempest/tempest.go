// Package tempest implements the simulated parallel machine that plays the
// role of the paper's CM-5 + Blizzard-E substrate.
//
// The machine is a collection of autonomous nodes connected by a
// point-to-point network.  Each node runs its program as a coroutine of the
// run's one goroutine and owns a virtual cycle clock; a cooperative token
// (internal/sched) lets exactly one of them execute at a time and moves in
// virtual-time order, so a run is a pure function of its inputs and nothing
// a node touches needs a lock.  Every program load and store consults the node's fine-grain
// access-control tag for the addressed block — exactly the control point
// Blizzard-E instruments — and a disallowed access invokes the active
// coherence protocol's user-level fault handler.  Protocol handlers run
// synchronously in the faulting node's coroutine, from one scheduling point
// to the next, charging the requester the modelled network latency and the
// home node a handler-occupancy charge; this mirrors the execution-driven
// simulation methodology of the Wisconsin Wind Tunnel project from which
// the paper comes.  (A protocol may split a handler into the part only the
// faulting node can see and the part the home can; the machine then applies
// the second part at the handler's place in the schedule without stopping
// the node there.  See effects.go.)
//
// The package deliberately exposes the Tempest control points and nothing
// more: access-control tags, block data transfer, fault-handler dispatch,
// and barriers.  Coherence policy lives entirely in user-level protocol
// packages (internal/stache, internal/core).
package tempest

import (
	"fmt"
	"time"

	"lcm/internal/cost"
	"lcm/internal/fault"
	"lcm/internal/memsys"
	"lcm/internal/net"
	"lcm/internal/sched"
	"lcm/internal/stats"
	"lcm/internal/trace"
)

// Tag is a fine-grain access-control tag.  Order matters: a load is legal
// when tag >= TagReadOnly, a store when tag >= TagReadWrite.
type Tag = uint32

const (
	// TagInvalid: no access; any reference faults.
	TagInvalid Tag = iota
	// TagReadOnly: loads succeed, stores fault.
	TagReadOnly
	// TagReadWrite: exclusive coherent copy; loads and stores succeed.
	TagReadWrite
	// TagPrivate: LCM private-modified copy; loads and stores succeed but
	// the contents are intentionally inconsistent with global memory
	// until reconciliation.
	TagPrivate
)

// TagName returns a short human-readable tag name for traces and tests.
func TagName(t Tag) string {
	switch t {
	case TagInvalid:
		return "inv"
	case TagReadOnly:
		return "ro"
	case TagReadWrite:
		return "rw"
	case TagPrivate:
		return "priv"
	default:
		return fmt.Sprintf("tag(%d)", t)
	}
}

// Line is a node's cached copy of one block.  Other nodes' protocol handlers
// revoke the tag; everything else is mutated only by the owning node — all of
// it by whoever holds the scheduler token (see the data-movement rules in
// DESIGN.md).
type Line struct {
	tag Tag

	// home marks a line whose Data is the block's home image itself (set
	// once, at newLine): a line of a sequentially consistent region, or any
	// line on a machine whose protocol has no split handlers.  Such a line
	// never holds a private copy, and with a valid tag its bytes are the
	// home's by definition, so nothing copies into it and a store writes
	// memory once.  Its tag, data and directory entry are written by other
	// nodes' real handlers, so while the effect log is non-empty the owner
	// drains before it looks at any of them (see lineFor and settle).  It
	// sits in the padding after tag, on the cache line every access reads
	// anyway.
	home bool

	// Data is the cached copy, blockSize bytes: the home image's bytes for
	// a home line, a node-local buffer otherwise.
	Data []byte

	// Clean is the node-local clean copy kept by LCM-mcc (nil when none).
	Clean []byte

	// Gen is protocol scratch: LCM stores the reconcile-phase generation
	// in which the line was installed or marked.
	Gen uint32

	// CleanGen is the reconcile-phase generation in which Clean was
	// captured; a clean copy is only valid within its own phase.
	CleanGen uint32

	// Marked records that the line is on the node's marked-blocks list
	// for the current invocation (owner goroutine only).
	Marked bool

	// inFIFO records residency-queue membership for capacity-limited
	// machines (owner goroutine only).
	inFIFO bool

	// WMask records which 32-bit words of a private copy were stored to
	// since the last mark, at store granularity (owner goroutine only).
	// Maintained only for conflict-checked regions, where reconciliation
	// must see value-equal stores as modifications (the paper's footnote
	// 2 store-trapping scheme).
	WMask uint64

	// block is the line's block ID, fixed at first install (lines map
	// 1:1 to (node, block) for the machine's lifetime).  It lets audits
	// walk a node's installed lines without scanning the full table.
	block memsys.BlockID
}

// Block returns the block the line caches.
func (l *Line) Block() memsys.BlockID { return l.block }

// Tag returns the line's current access tag.
func (l *Line) Tag() Tag { return l.tag }

// SetTag stores a new access tag.
func (l *Line) SetTag(t Tag) { l.tag = t }

// Protocol is a user-level coherence protocol: the policy code that Tempest
// dispatches to on access faults and memory-system directives.  Fault
// handlers run in the faulting node's goroutine and must return a line with
// a tag permitting the faulted access.
type Protocol interface {
	// Name identifies the protocol in reports ("stache", "lcm-mcc", ...).
	Name() string

	// Attach is called once at Machine.Freeze so the protocol can size
	// its per-block directory state.
	Attach(m *Machine)

	// ReadFault handles a load with no readable copy.
	ReadFault(n *Node, b memsys.BlockID) *Line

	// WriteFault handles a store with no writable copy.
	WriteFault(n *Node, b memsys.BlockID) *Line

	// MarkModification is the LCM directive: create an inconsistent
	// writable copy of the block containing addr (Section 5.1).
	// Coherent protocols treat it as an ordinary write preparation.
	MarkModification(n *Node, addr memsys.Addr)

	// FlushCopies is the LCM directive: return this node's modified
	// copies to their homes for (partial) reconciliation, so the next
	// invocation cannot observe them.
	FlushCopies(n *Node)

	// ReconcileCopies is the LCM directive: a global barrier after which
	// memory is coherent again.  Every node must call it.
	ReconcileCopies(n *Node)

	// Evict asks the protocol to drop node n's copy of block b to make
	// room (capacity-limited configurations).  It returns false when the
	// copy cannot be discarded — LCM refuses to evict private-modified
	// blocks, whose only copy of the modifications lives in the cache.
	Evict(n *Node, b memsys.BlockID) bool
}

// Machine is the simulated multicomputer.
type Machine struct {
	P     int
	AS    *memsys.AddressSpace
	Cost  cost.Model
	Nodes []*Node

	// Shared holds machine-wide protocol counters.
	Shared stats.Shared

	// Trace, when non-nil, records protocol events (see internal/trace).
	// Attach with AttachTrace before Run.
	Trace *trace.Buffer

	// CacheLines bounds each node's resident blocks (0 = unbounded, the
	// default: the paper's Stache backs caching with all of local
	// memory).  When set, a fault on a full cache first evicts the
	// oldest resident block FIFO-style.  Set before Run.
	CacheLines int

	// Fault, when non-nil, executes the run's fault plan: faults at the
	// data-movement boundary (faults.go), message fates on the network
	// (net/reliable.go) and, under a plan with Recover, checkpoints at
	// every barrier epoch with kills restarting from the last one
	// (checkpoint.go).  All recovery charges are gated on the plan, so
	// fault-free runs stay bit-identical to historical results.  Attach
	// with AttachFaults before Run.
	Fault *fault.Injector

	// Net prices and accounts every protocol message (see internal/net).
	// New installs the uniform model, which reproduces the historical
	// flat charges bit-exactly; SetNetwork swaps in a topology-aware
	// model before Run.
	Net *net.Network

	// Watchdog, when positive, bounds the wall-clock duration of any
	// single barrier round: a round that stalls past the bound is
	// aborted with per-node diagnostics instead of hanging, and
	// RunErr bounds its post-failure wait for straggler nodes.  A node
	// that returns without arriving is a deadlock the scheduler reports at
	// once; what only a timer can catch is a body that holds the token and
	// never reaches another scheduling point.  Zero (the default) disables
	// all wall-clock timers.  Set before Run.
	Watchdog time.Duration

	// ScalarAccess disables the bulk span transfer paths: every
	// ReadSpan*/WriteSpan*/CopySpan call decomposes into the per-element
	// scalar accessors instead.  Accounting is identical either way (the
	// span engine's contract); the flag exists so differential tests can
	// run both engines over the same workload and assert it.  Set before
	// Run.
	ScalarAccess bool

	// SchedSeed selects the schedule's tie-break hash (0 = canonical
	// cycle/node order): the whole interleaving — and with it simulated
	// cycles and order-dependent fault counts at P>1 — is a pure function
	// of (workload, P, SchedSeed).  Set before Run.
	SchedSeed uint64

	// SchedHook, when non-nil, is invoked on each run's fresh scheduler
	// before it starts, so the model checker (internal/check) can install
	// its chooser, observer, and footprint recording.
	SchedHook func(*sched.Scheduler)

	protocol Protocol
	applier  EffectApplier // protocol, if its handlers are split (effects.go)
	bar      *Barrier
	frozen   bool
	cfgErr   error
	schedder *sched.Scheduler

	// trackWrites is set at Freeze when any region requests conflict
	// checking; it gates the per-store word recording.
	trackWrites bool
}

// New creates a machine with p nodes and the given block size and cost
// model.  Allocate regions through AS, install a protocol with SetProtocol,
// then call Freeze before Run.
func New(p int, blockSize uint32, c cost.Model) *Machine {
	m := &Machine{
		P:    p,
		AS:   memsys.NewAddressSpace(p, blockSize),
		Cost: c,
		Net:  net.NewUniform(c, 0),
		bar:  NewBarrier(p),
	}
	m.Nodes = make([]*Node, p)
	for i := range m.Nodes {
		m.Nodes[i] = &Node{ID: i, M: m}
	}
	// Fold every node's stolen handler cycles into the barrier maximum at
	// the instant the last participant arrives: handlers that ran after a
	// node's own pre-barrier fold may still have charged it.
	m.bar.foldClocks = func() int64 {
		var max int64
		for _, nd := range m.Nodes {
			nd.FoldStolen()
			if nd.clock > max {
				max = nd.clock
			}
		}
		return max
	}
	return m
}

// SetProtocol installs the coherence protocol.  Must precede Freeze.
func (m *Machine) SetProtocol(p Protocol) {
	if m.frozen {
		panic("tempest: SetProtocol after Freeze")
	}
	m.protocol = p
}

// Protocol returns the installed protocol.
func (m *Machine) Protocol() Protocol { return m.protocol }

// SetNetwork replaces the interconnect model, which carries the attached
// fault plan's delivery faults like the one it replaces.  Must precede Run.
func (m *Machine) SetNetwork(nw *net.Network) {
	if nw != nil {
		m.Net = nw
		nw.SetFaults(m.Fault, m.P)
	}
}

// RecordConfigError records a machine-configuration error caused by bad
// user input (an invalid policy, a bad allocation request).  The first
// recorded error is surfaced by FreezeErr and RunErr, so library layers
// can report bad configuration without panicking mid-allocation.
func (m *Machine) RecordConfigError(err error) {
	if m.cfgErr == nil && err != nil {
		m.cfgErr = err
	}
}

// Freeze finalizes the address space, sizes per-node line tables, and
// attaches the protocol.  Must be called exactly once, after all
// allocation and before Run.  It panics on recorded configuration errors;
// FreezeErr reports them as an error instead.
func (m *Machine) Freeze() {
	if err := m.FreezeErr(); err != nil {
		panic(err)
	}
}

// FreezeErr is Freeze with configuration errors returned rather than
// panicked: bad user-suppliable input (policies, allocation sizes)
// surfaces here.  Misuse of the API itself (double freeze, no protocol)
// still panics.
func (m *Machine) FreezeErr() error {
	if m.frozen {
		panic("tempest: double Freeze")
	}
	if m.protocol == nil {
		panic("tempest: Freeze without a protocol")
	}
	if m.cfgErr != nil {
		return m.cfgErr
	}
	m.frozen = true
	m.AS.Freeze()
	n := m.AS.NumBlocks()
	for _, nd := range m.Nodes {
		nd.lines = make([]*Line, n)
	}
	for _, r := range m.AS.Regions() {
		if r.ConflictCheck {
			m.trackWrites = true
		}
	}
	m.applier, _ = m.protocol.(EffectApplier)
	m.protocol.Attach(m)
	return nil
}

// Lock announces that the token holder is about to touch block b's home and
// directory state — protocol state transitions, cross-node data movement.
// The token is what excludes every other node until the holder's next
// scheduling point, so there is nothing to acquire or release; the call
// records b in the footprint the model checker prunes sleep sets by.
func (m *Machine) Lock(b memsys.BlockID) { m.schedder.NoteLock(uint32(b)) }

// Sched returns the current (or most recent) run's scheduler, nil before the
// first run.
func (m *Machine) Sched() *sched.Scheduler { return m.schedder }

// AttachTrace enables event tracing with the given per-node ring capacity.
func (m *Machine) AttachTrace(capacity int) *trace.Buffer {
	m.Trace = trace.New(m.P, capacity)
	return m.Trace
}

// MaxClock returns the maximum virtual clock across nodes.  Meaningful only
// while no node is running.
func (m *Machine) MaxClock() int64 {
	var max int64
	for _, nd := range m.Nodes {
		if c := nd.Clock(); c > max {
			max = c
		}
	}
	return max
}

// TotalCounters sums all per-node counters.  Meaningful only while no node
// is running.
func (m *Machine) TotalCounters() stats.NodeCounters {
	var t stats.NodeCounters
	for _, nd := range m.Nodes {
		t.Add(&nd.Ctr)
	}
	return t
}

// Node is one processing element: a processor, its fine-grain tags and
// cached lines, its local-memory cache, and its virtual clock.
type Node struct {
	ID int
	M  *Machine

	// Ctr is the node's event record (owner goroutine only).
	Ctr stats.NodeCounters

	// PD is per-node protocol state, owned by the active protocol.
	PD any

	// clock is advanced by the node itself; stolen by the handlers other
	// nodes run against blocks homed here, and folded into clock at
	// barriers and at the end of Run.
	clock  int64
	stolen int64

	lines []*Line

	// mruBlock/mruLine cache the most recently accessed (block, line)
	// pair so consecutive same-block accesses skip the line-table load.
	// The cached line's tag is still checked on every access, so a
	// revocation by another node's handler is seen (see "Fast-path
	// invariants" in DESIGN.md).  mruLine == nil means empty.
	mruBlock memsys.BlockID
	mruLine  *Line

	// fifo is the residency queue for capacity-limited machines, a
	// head-indexed ring: entries before fifoHead are dead.  The dead
	// prefix is compacted away periodically so the backing array stays
	// proportional to the live queue, not to the eviction history.
	fifo     []memsys.BlockID
	fifoHead int

	// lineArena and dataArena back new lines in chunks (owner goroutine
	// only): a P-node run creates up to P×blocks lines, so first-touch
	// installs carve from these instead of paying two allocations per
	// block.  lineChunks retains every arena chunk in allocation order
	// so audits can walk installed lines densely (see InstalledLines).
	lineArena  []Line
	dataArena  []byte
	lineChunks [][]Line

	// wire is where a block transfer into a home line arrives under a fault
	// plan, so an injected corruption hits the node's copy on the wire and
	// never the home image (deliverBlock); carved on first use.
	wire []byte

	// ckpt is the node's last barrier-epoch checkpoint; degraded marks a
	// node whose home responsibility migrated to a peer.  Both owner
	// goroutine only; see checkpoint.go.
	ckpt     checkpoint
	degraded bool

	// fx is the node's effect log (effects.go): a ring of the shared
	// halves this node's handlers have posted but the scheduler has not
	// yet applied, fxLen of them starting at fxHead, when runAhead is set;
	// a single scratch record otherwise.  Touched by the owner while it
	// runs and by whichever node drives the scheduler while it does not;
	// the token orders the two.
	fx       []Effect
	fxHead   int
	fxLen    int
	runAhead bool
}

// Clock returns the node's current virtual cycle count including handler
// cycles stolen by other nodes' requests.  While the node runs ahead of
// effects it has posted (Machine.RunAhead), the stolen part is whatever has
// been applied so far, not the schedule's value; a body that needs an exact
// mid-phase reading calls SchedYield first.
func (n *Node) Clock() int64 { return n.clock + n.stolen }

// SchedYield is a scheduling point: the node offers the token at its
// current virtual time and does not proceed until the run queue grants it
// again.  Protocol handlers call it on entry, before they touch a block's
// home state, so the order in which contending nodes run a handler is
// decided by virtual time.  If the run has been aborted in the meantime the
// node does not proceed at all: it unwinds (see unwind).
func (n *Node) SchedYield() {
	n.drain()
	if !n.M.schedder.Yield(n.ID, n.Clock()) {
		n.unwind()
	}
}

// unwind is what a scheduling call that finds the run poisoned does instead
// of returning: it panics with the barrier's abort error, which RunErr
// recovers into a collateral failure.  The node was parked, or about to
// park, so it leaves without running another line of protocol code.
func (n *Node) unwind() {
	if v := n.M.schedder.PostFailure(n.ID); v != nil {
		// One of this node's effects panicked inside the scheduling call
		// that was applying it; the failure is this node's.
		panic(v)
	}
	panic(n.M.bar.poisonErr())
}

// Charge advances the node's clock by c cycles (owner only).
func (n *Node) Charge(c int64) { n.clock += c }

// ChargeRemote charges c cycles to another node's clock (handler occupancy
// stolen from the home processor).
func (n *Node) ChargeRemote(c int64) { n.stolen += c }

// FoldStolen folds stolen handler cycles into the local clock.  Called at
// barriers and at the end of Run.
func (n *Node) FoldStolen() { n.clock, n.stolen = n.clock+n.stolen, 0 }

// Line returns the node's line for block b, or nil if none was ever
// installed.  The line's tag must be checked before using its data.
func (n *Node) Line(b memsys.BlockID) *Line { return n.lines[b] }

// Install makes the node's line for b hold a copy of src with the given
// tag, creating the line on first use.  A home line copies nothing — src is
// the home image it already is — and may not be made private.  With a fault
// injector attached, the transfer is checksummed and corrupted arrivals are
// healed by bounded re-fetch (see deliverBlock).
func (n *Node) Install(b memsys.BlockID, src []byte, tag Tag) *Line {
	l := n.lines[b]
	if l == nil {
		l = n.newLine(b)
		n.lines[b] = l
	}
	if !l.home {
		copy(l.Data, src)
	} else if tag == TagPrivate {
		panic(fmt.Sprintf("tempest: private copy of block %d, whose line is its home image", b))
	}
	if f := n.M.Fault; f != nil {
		n.deliverBlock(f, b, l, src)
	}
	l.SetTag(tag)
	if n.M.CacheLines > 0 && !l.inFIFO {
		l.inFIFO = true
		n.fifo = append(n.fifo, b)
	}
	return l
}

// lineArenaChunk is how many lines (and line-sized buffers) the node
// arenas grow by at a time.
const lineArenaChunk = 64

// newLine carves a fresh line from the node's arena (owner goroutine only;
// install paths all run in the faulting node's goroutine), with the block's
// home image as its data if it is a home line and a zeroed block-sized
// buffer from the data arena otherwise.  Only a split protocol (the LCM)
// makes private copies, and only outside coherent regions, so every other
// line is a home line.  The backing arrays are only ever resliced, never
// reallocated, so pointers into them stay valid for the machine's lifetime.
func (n *Node) newLine(b memsys.BlockID) *Line {
	if len(n.lineArena) == 0 {
		n.lineArena = make([]Line, lineArenaChunk)
		n.lineChunks = append(n.lineChunks, n.lineArena)
	}
	l := &n.lineArena[0]
	n.lineArena = n.lineArena[1:]
	l.block = b
	// Decided from the machine, not from the coming run: lines outlive runs.
	l.home = n.M.applier == nil || n.M.AS.RegionOfBlock(b).Kind == memsys.KindCoherent
	if l.home {
		l.Data = n.M.AS.HomeData(b)
	} else {
		l.Data = n.BlockBuf()
	}
	return l
}

// InstalledLines returns the node's line storage in allocation order:
// every line the node has ever installed appears in exactly one chunk,
// carrying its block ID (Line.Block).  Entries with nil Data are the
// unallocated tail of the last chunk.  For quiescent audits only — the
// caller must not run concurrently with the owner goroutine.
func (n *Node) InstalledLines() [][]Line { return n.lineChunks }

// BlockBuf returns a zeroed block-sized buffer carved from the node's
// data arena (owner goroutine only).  Protocols use it for per-line
// auxiliary images (e.g. LCM-mcc local clean copies) so those do not pay
// one allocation per line either.
func (n *Node) BlockBuf() []byte {
	bs := int(n.M.AS.BlockSize)
	if len(n.dataArena) < bs {
		n.dataArena = make([]byte, bs*lineArenaChunk)
	}
	buf := n.dataArena[:bs:bs]
	n.dataArena = n.dataArena[bs:]
	return buf
}

// fifoCompactMin is the dead-prefix length below which makeRoom does not
// bother compacting the residency ring.
const fifoCompactMin = 64

// fifoLen returns the live length of the residency queue.
func (n *Node) fifoLen() int { return len(n.fifo) - n.fifoHead }

// makeRoom evicts resident blocks FIFO-style until the cache is under
// capacity.  Called on the fault path before the protocol installs a new
// line.  Blocks the protocol refuses to evict (LCM private copies) are
// requeued.
//
// Pops advance fifoHead instead of re-slicing, and the dead prefix is
// copied away once it dominates the backing array: a plain
// `fifo = fifo[1:]` never releases the popped entries, so long
// capacity-limited runs would grow the array without bound.
func (n *Node) makeRoom() {
	capLines := n.M.CacheLines
	if capLines <= 0 {
		return
	}
	attempts := n.fifoLen()
	for n.fifoLen() >= capLines && attempts > 0 {
		attempts--
		b := n.fifo[n.fifoHead]
		n.fifoHead++
		if n.fifoHead >= fifoCompactMin && n.fifoHead*2 >= len(n.fifo) {
			n.fifo = n.fifo[:copy(n.fifo, n.fifo[n.fifoHead:])]
			n.fifoHead = 0
		}
		l := n.lines[b]
		if l == nil {
			continue
		}
		l.inFIFO = false
		n.settle(l) // only a home victim: an LCM one is evicted by a post
		if l.Tag() == TagInvalid {
			continue // already revoked remotely; the slot is free
		}
		if !n.M.protocol.Evict(n, b) {
			l.inFIFO = true
			n.fifo = append(n.fifo, b) // unevictable: requeue
			continue
		}
		if n.mruLine != nil && n.mruBlock == b {
			n.mruLine = nil
		}
		n.Ctr.Evictions++
	}
}

// Barrier joins the global barrier: the node's clock is advanced to the
// maximum across nodes plus the barrier cost.  If the barrier is aborted
// while this node waits — a sibling died, or the watchdog detected a
// stall — the node panics with the distinguished abort error, which
// RunErr recovers into a structured collateral failure.
func (n *Node) Barrier() {
	// A plan may kill the node at the epoch boundary, before its arrival
	// resolves the barrier: crash-at-barrier restarts from the *previous*
	// epoch's checkpoint.
	if f := n.M.Fault; f != nil && f.BarrierArrival(n.ID) {
		n.killed(f, f.Plan().KillAtBarrier)
	}
	n.drain() // the fold below reads cycles other nodes' effects steal
	n.M.Net.Barrier(n.ID, &n.Ctr.Net)
	n.FoldStolen()
	c, err := n.M.bar.WaitNode(n.ID, n.clock)
	if err != nil {
		panic(err)
	}
	n.clock = c + n.M.Cost.Barrier
	n.Ctr.Barriers++
	if f := n.M.Fault; f != nil && f.Plan().Recover {
		// The epoch boundary is where the consistency contract makes
		// node state meaningful, so it is the checkpoint point.
		n.takeCheckpoint()
	}
	if t := n.M.Trace; t != nil {
		t.Record(n.ID, n.clock, trace.BarrierEvt, 0, 0)
	}
}

// DropCopy discards this node's read-only copy of the block containing a,
// if any.  The next reference re-fetches the latest value — the consumer-
// driven refresh of the stale-data policy (Section 7.5: "the consumer can
// simply flush the block") and the relinquish half of a shard handoff.
// The drop goes through the protocol's eviction path so the home
// directory forgets the sharer (a silently dropped copy would earn
// useless invalidations later and fails the quiescent audits).  Private
// (modified) copies are not dropped.
func (n *Node) DropCopy(a memsys.Addr) {
	b := n.M.AS.Block(a)
	l := n.lines[b]
	n.settle(l)
	if l != nil && l.Tag() == TagReadOnly {
		n.M.protocol.Evict(n, b)
		if n.mruLine != nil && n.mruBlock == b {
			n.mruLine = nil
		}
	}
}

// Mark executes the LCM MarkModification directive for addr.  On a
// coherent block the directive is a tag peek that decides whether to fault.
func (n *Node) Mark(addr memsys.Addr) {
	n.settle(n.lines[n.M.AS.Block(addr)])
	n.M.protocol.MarkModification(n, addr)
}

// FlushCopies executes the LCM FlushCopies directive.
func (n *Node) FlushCopies() { n.M.protocol.FlushCopies(n) }

// ReconcileCopies executes the LCM ReconcileCopies directive (a global
// barrier; every node must call it).
func (n *Node) ReconcileCopies() { n.M.protocol.ReconcileCopies(n) }
