// Package cost defines the virtual-time cost model for the simulated
// Tempest machine.
//
// The reproduction runs protocols by execution-driven simulation: every
// program memory access consults fine-grain access-control tags, and
// protocol events charge virtual cycles to the node that experiences them.
// The constants below are calibrated to the Blizzard-E / CM-5 platform of
// the paper: a 33 MHz SPARC node where a software-handled remote miss costs
// a few thousand cycles, an access-control change tens of cycles, and a
// local-memory (Stache) fill tens of cycles.  Absolute values are a model;
// the reproduction targets relative shapes (see EXPERIMENTS.md).
package cost

// Model holds the per-event virtual-cycle charges used by the simulator.
// All fields are in processor cycles.
type Model struct {
	// CacheHit is charged for every load or store that the access-control
	// tags permit (the common case; Blizzard-E's inline tag check).
	CacheHit int64

	// LocalFill is charged when a miss is satisfied from the node's own
	// local memory (its Stache region or a locally retained clean copy).
	LocalFill int64

	// RemoteRoundTrip is charged to the requester for a two-message
	// request/response exchange with a remote home node.
	RemoteRoundTrip int64

	// ThirdHop is the additional charge when the home must forward the
	// request to a dirty remote owner (three-hop miss).
	ThirdHop int64

	// PerByte is the bandwidth term: charged per byte of block payload
	// on every data-carrying remote transfer, on top of the fixed
	// round-trip latency.  It makes large-block configurations pay for
	// the data they move.
	PerByte int64

	// HomeOccupancy is charged to the *home* node each time one of its
	// protocol handlers runs a blocking request on behalf of another
	// node (handler "stealing" compute cycles, as in Blizzard).
	HomeOccupancy int64

	// FlushOccupancy is charged to the home node per incoming one-way
	// block flush.  Flushes are fire-and-forget messages, much cheaper
	// to field than blocking miss requests.
	FlushOccupancy int64

	// InvalidatePerCopy is charged to the invalidating requester per
	// outstanding copy that must be invalidated.
	InvalidatePerCopy int64

	// Upgrade is charged for a ReadOnly -> ReadWrite permission upgrade
	// that carries no data.
	Upgrade int64

	// MarkLocal is charged for an LCM MarkModification that is satisfied
	// entirely locally (block already cached with a local clean copy).
	MarkLocal int64

	// FlushPerBlock is the fixed per-block charge for returning a
	// modified block to its home at FlushCopies/ReconcileCopies time.
	FlushPerBlock int64

	// MergePerWord is charged (to the home) per modified word merged into
	// the home's pending reconciled image.
	MergePerWord int64

	// Barrier is the fixed cost of a global barrier, charged to each node
	// on top of the synchronization (clock max) itself.
	Barrier int64

	// CopyPerWord is charged per word for program-level explicit copying
	// (the compiler-generated two-array strategy of the baseline): the
	// load, store and address arithmetic of the copy loop, including the
	// pointer chasing that copying a linked structure such as the
	// adaptive mesh's quad-trees entails.
	CopyPerWord int64

	// Compute is the charge for one abstract unit of computation; each
	// workload charges a small number of these per invocation so that
	// computation is not free relative to communication.
	Compute int64

	// The four fields below price crash recovery.  They are charged only
	// under a fault plan with Recover (fault.Plan), so fault-free runs
	// remain bit-identical to historical results.

	// CheckpointPerLine is charged per installed line snapshotted into a
	// node's barrier-epoch checkpoint (a local memory copy).
	CheckpointPerLine int64

	// RestartBase is the fixed charge of one checkpoint restart: fault
	// detection, reinitialization, rejoining the computation.
	RestartBase int64

	// RestorePerLine is charged per line restored from the checkpoint at
	// restart (a local memory copy back).
	RestorePerLine int64

	// ReplayPerOp is charged per memory operation deterministically
	// replayed between the restored checkpoint and the crash point.
	ReplayPerOp int64
}

// Default returns the cost model used for all paper-reproduction
// experiments.  Values approximate Blizzard-E on a 32-node CM-5.
func Default() Model {
	return Model{
		CacheHit:          1,
		LocalFill:         40,
		RemoteRoundTrip:   3000,
		ThirdHop:          1500,
		PerByte:           2,
		HomeOccupancy:     400,
		FlushOccupancy:    60,
		InvalidatePerCopy: 300,
		Upgrade:           600,
		MarkLocal:         30,
		FlushPerBlock:     250,
		MergePerWord:      5,
		Barrier:           4000,
		CopyPerWord:       20,
		Compute:           40,
		CheckpointPerLine: 10,
		RestartBase:       20000,
		RestorePerLine:    40,
		ReplayPerOp:       2,
	}
}

// Uniform returns a degenerate model where every event costs c cycles.
// Used by tests that verify event counting independent of weighting.
func Uniform(c int64) Model {
	return Model{
		CacheHit: c, LocalFill: c, RemoteRoundTrip: c, ThirdHop: c,
		PerByte: c, HomeOccupancy: c, FlushOccupancy: c, InvalidatePerCopy: c, Upgrade: c, MarkLocal: c,
		FlushPerBlock: c, MergePerWord: c, Barrier: c, CopyPerWord: c,
		Compute:           c,
		CheckpointPerLine: c, RestartBase: c, RestorePerLine: c, ReplayPerOp: c,
	}
}

// Zero returns a model where nothing costs anything.  Useful for tests
// that assert pure protocol-state behaviour.
func Zero() Model { return Model{} }
