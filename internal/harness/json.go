package harness

import (
	"encoding/json"
	"io"
	"time"

	"lcm/internal/cstar"
	"lcm/internal/workloads"
)

// BenchRecord is one (workload, system) cell of a benchmark trajectory
// file: the host wall-clock cost of producing the cell next to the
// simulation observables that must stay invariant while the host cost
// improves.  Tracking both across commits separates "the simulator got
// faster" from "the simulator got different".
type BenchRecord struct {
	Workload string `json:"workload"`
	Sched    string `json:"sched,omitempty"`
	System   string `json:"system"`
	// WallNS is host wall-clock time for the cell, in nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// SimCycles, SimMisses and CleanCopies are simulation results; they
	// must be bit-identical across host-side optimizations.
	SimCycles   int64 `json:"simcycles"`
	SimMisses   int64 `json:"simmisses"`
	CleanCopies int64 `json:"cleancopies"`
	// Verified reports whether the run was checked against the
	// sequential reference (and passed; failed runs never reach here).
	Verified bool `json:"verified,omitempty"`
	// NetMsgs and NetBytes count protocol messages and bytes injected
	// into the interconnect; deterministic for every network model.
	NetMsgs  int64 `json:"net_msgs"`
	NetBytes int64 `json:"net_bytes"`
	// NetQueueCycles and MaxLinkBusy are contention observables; both
	// are zero under the uniform model (which has no links).  Under the
	// deterministic scheduler they are as reproducible as every other
	// observable and are held to the same identity check.
	NetQueueCycles int64 `json:"net_queue_cycles,omitempty"`
	MaxLinkBusy    int64 `json:"max_link_busy,omitempty"`
	// Fault-injection and crash-recovery observables.  All are zero for
	// fault-free runs and omitted from their JSON, so historical BENCH
	// files and benchdiff comparisons are unaffected.
	FaultCorruptions int64 `json:"fault_corruptions,omitempty"`
	FaultTimeouts    int64 `json:"fault_timeouts,omitempty"`
	FaultSpikes      int64 `json:"fault_spikes,omitempty"`
	FaultStalls      int64 `json:"fault_stalls,omitempty"`
	FaultKills       int64 `json:"fault_kills,omitempty"`
	Retransmits      int64 `json:"retransmits,omitempty"`
	DupDelivered     int64 `json:"dup_delivered,omitempty"`
	ReorderHeld      int64 `json:"reorder_held,omitempty"`
	Checkpoints      int64 `json:"checkpoints,omitempty"`
	Restarts         int64 `json:"restarts,omitempty"`
	RehomedRegions   int64 `json:"rehomed_regions,omitempty"`
	RehomedBlocks    int64 `json:"rehomed_blocks,omitempty"`
	RecoveryCycles   int64 `json:"recovery_cycles,omitempty"`
	// Serving-workload observables (the KV cells).  All are zero for
	// the paper's kernels and omitted from their JSON, so historical
	// BENCH files are unaffected; for KV records they are held to the
	// same bit-identity gates as the protocol counters.  KVAnswer is
	// the folded per-shard/per-stream checksum — the workload's final
	// answer as one value.
	KVOps            int64 `json:"kv_ops,omitempty"`
	KVGets           int64 `json:"kv_gets,omitempty"`
	KVPuts           int64 `json:"kv_puts,omitempty"`
	KVReshards       int64 `json:"kv_reshards,omitempty"`
	KVMigratedBlocks int64 `json:"kv_migrated_blocks,omitempty"`
	KVHotShardOps    int64 `json:"kv_hot_shard_ops,omitempty"`
	KVAnswer         int64 `json:"kv_answer,omitempty"`
	// Host-side scheduling facts: whether the cell's protocol handlers
	// ran ahead of the scheduler token ("on", or "off: " and the reason
	// the machine gave), and the scheduler's grants, hand-offs between node
	// coroutines and deferred applies.  Informational, like WallNS: no observable
	// depends on them, and MaskHostTime clears them.
	RunAhead      string `json:"run_ahead,omitempty"`
	SchedGrants   int64  `json:"sched_grants,omitempty"`
	SchedHandoffs int64  `json:"sched_handoffs,omitempty"`
	SchedApplies  int64  `json:"sched_applies,omitempty"`
}

// runAheadLabel renders a run's run-ahead decision for reports.
func runAheadLabel(h workloads.HostStats) string {
	if h.RunAhead {
		return "on"
	}
	return "off: " + h.Reason
}

// BenchFile is the on-disk BENCH_*.json shape.
type BenchFile struct {
	Schema string `json:"schema"`
	// UnixNS is the trajectory timestamp (when the campaign finished).
	// It is the only file-level field that varies between two runs of the
	// same configuration; MarshalDeterministic leaves it zero.
	UnixNS int64 `json:"unix_ns"`
	// P and Scale identify the configuration the records belong to.
	P     int `json:"p"`
	Scale int `json:"scale"`
	// Net names the interconnect model the records ran under.
	Net string `json:"net,omitempty"`
	// Scheduler is always "det", the virtual-time token (SchedSeed selects
	// the schedule); the field stays because every historical record and
	// cache key carries it.  Records from different schedules are not
	// comparable observable-for-observable, so benchdiff refuses to diff
	// across a mismatch.
	Scheduler string        `json:"scheduler,omitempty"`
	SchedSeed uint64        `json:"sched_seed,omitempty"`
	Records   []BenchRecord `json:"records"`
}

// benchSchema names the record layout; bump when fields change meaning.
const benchSchema = "lcmbench/2"

// benchFile collects benchmark rows into the BENCH_*.json shape with no
// timestamp: every byte of the result is a pure function of the rows and
// configuration.
func benchFile(cfg workloads.Config, scale int, rows []map[cstar.System]workloads.Result) BenchFile {
	bf := BenchFile{
		Schema:    benchSchema,
		P:         cfg.P,
		Scale:     scale,
		Scheduler: "det",
		SchedSeed: cfg.SchedSeed,
	}
	for _, r := range Results(rows) {
		bf.Net = r.Net
		bf.Records = append(bf.Records, BenchRecord{
			Workload:       r.Workload,
			Sched:          r.Sched,
			System:         r.System.String(),
			WallNS:         r.Wall.Nanoseconds(),
			SimCycles:      r.Cycles,
			SimMisses:      r.C.Misses,
			CleanCopies:    r.CleanCopies(),
			Verified:       cfg.Verify && r.Err == nil,
			NetMsgs:        r.C.Net.TotalMsgs(),
			NetBytes:       r.C.Net.Bytes,
			NetQueueCycles: r.C.Net.QueueCycles,
			MaxLinkBusy:    r.Links.MaxBusy,

			FaultCorruptions: r.Faults.Corruptions,
			FaultTimeouts:    r.Faults.Timeouts,
			FaultSpikes:      r.Faults.Spikes,
			FaultStalls:      r.Faults.Stalls,
			FaultKills:       r.Faults.Kills,
			Retransmits:      r.C.Net.Retransmits,
			DupDelivered:     r.C.Net.DupDelivered,
			ReorderHeld:      r.C.Net.ReorderHeld,
			Checkpoints:      r.C.Checkpoints,
			Restarts:         r.C.Restarts,
			RehomedRegions:   r.C.Rehomings,
			RehomedBlocks:    r.C.RehomedBlocks,
			RecoveryCycles:   r.C.RecoveryCycles,

			KVOps:            r.KV.Ops,
			KVGets:           r.KV.Gets,
			KVPuts:           r.KV.Puts,
			KVReshards:       r.KV.Reshards,
			KVMigratedBlocks: r.KV.MigratedBlocks,
			KVHotShardOps:    r.KV.HotShardOps,
			KVAnswer:         r.KV.Answer,

			RunAhead:      runAheadLabel(r.Host),
			SchedGrants:   r.Host.Grants,
			SchedHandoffs: r.Host.Handoffs,
			SchedApplies:  r.Host.Applies,
		})
	}
	return bf
}

// WriteJSON renders benchmark rows as a BENCH_*.json trajectory file,
// stamped with the current time.
func WriteJSON(w io.Writer, cfg workloads.Config, scale int, rows []map[cstar.System]workloads.Result) error {
	bf := benchFile(cfg, scale, rows)
	bf.UnixNS = time.Now().UnixNano()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(bf)
}

// MaskHostTime zeroes everything in the file that describes the host rather
// than the simulated machine: the timestamp, and each record's wall clock,
// run-ahead decision and scheduler tallies.  It is the one list of what is
// host time; MarshalDeterministic and benchdiff both mask with it, so what
// one calls deterministic the other compares.
func (bf *BenchFile) MaskHostTime() {
	bf.UnixNS = 0
	for i := range bf.Records {
		r := &bf.Records[i]
		r.WallNS = 0
		r.RunAhead, r.SchedGrants, r.SchedHandoffs, r.SchedApplies = "", 0, 0, 0
	}
}

// MarshalDeterministic renders benchmark rows as BENCH_*.json bytes with
// host time masked, so two runs of the same (workload set, P, scale,
// schedule seed) configuration must produce byte-identical output.  The
// replay tests assert exactly that.
func MarshalDeterministic(cfg workloads.Config, scale int, rows []map[cstar.System]workloads.Result) ([]byte, error) {
	bf := benchFile(cfg, scale, rows)
	bf.MaskHostTime()
	return json.MarshalIndent(bf, "", "  ")
}
