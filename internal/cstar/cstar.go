// Package cstar is a Go-embedded runtime for the C** large-grain
// data-parallel programming model of Section 4, targeted at the simulated
// Tempest machine.
//
// C** applies a parallel function to an aggregate; each element's
// invocation executes "atomically and simultaneously": modifications are
// private to the invocation and become globally visible only when the
// parallel call completes and all private modifications merge into a new
// global state.  Reduction assignments (%+= and friends) combine values
// written to one location with an associative operator.
//
// The paper's C** compiler lowers a parallel function in one of two ways:
//
//   - LCM mode: emit the function body unchanged and insert memory-system
//     directives (MarkModification / FlushCopies / ReconcileCopies); the
//     memory system implements the semantics by fine-grain copy-on-write.
//   - Copying mode: generate conventional code for the Stache protocol
//     that explicitly maintains two copies of the data (reads from the old
//     copy, writes to the new, pointer swap at the end), plus per-node
//     partial accumulators for reductions.
//
// This package plays the compiler's role: Lower maps a summary of the
// function's access behaviour to a Plan, schedulers partition invocations
// over nodes (statically or dynamically, the paper's "-stat" and "-dyn"
// variants), and the aggregate types route every element access through
// the simulated machine's tagged load/store path so the active protocol
// observes exactly the access stream a compiled C** program would
// generate.
package cstar

import (
	"fmt"

	"lcm/internal/tempest"
)

// System identifies which memory system a workload instance targets.
type System uint8

const (
	// Copying: Stache protocol with compiler-generated explicit copying.
	Copying System = iota
	// LCMscc: LCM with a single clean copy at home.
	LCMscc
	// LCMmcc: LCM with clean copies at every marking processor.
	LCMmcc
)

func (s System) String() string {
	switch s {
	case Copying:
		return "copying"
	case LCMscc:
		return "lcm-scc"
	case LCMmcc:
		return "lcm-mcc"
	default:
		return fmt.Sprintf("System(%d)", uint8(s))
	}
}

// ParseSystem resolves a memory-system name as the tools spell it: the
// String form ("copying", "lcm-scc", "lcm-mcc") or the model checker's
// short form ("scc", "mcc").
func ParseSystem(name string) (System, error) {
	switch name {
	case "copying":
		return Copying, nil
	case "lcm-scc", "scc":
		return LCMscc, nil
	case "lcm-mcc", "mcc":
		return LCMmcc, nil
	}
	return 0, fmt.Errorf("unknown system %q (want copying, lcm-scc|scc or lcm-mcc|mcc)", name)
}

// IsLCM reports whether the system uses the LCM protocol.
func (s System) IsLCM() bool { return s == LCMscc || s == LCMmcc }

// Mode is the lowering strategy chosen by the compiler for one parallel
// function.
type Mode uint8

const (
	// ModeLCM relies on the memory system (copy-on-write + reconcile).
	ModeLCM Mode = iota
	// ModeCopying uses explicit two-copy code on coherent memory.
	ModeCopying
)

func (m Mode) String() string {
	if m == ModeCopying {
		return "copying"
	}
	return "lcm"
}

// AccessSummary is what C** compiler analysis extracts from a parallel
// function body (Section 6: "Compiler analysis easily detects this
// potential conflict...").
type AccessSummary struct {
	// WritesOwnElementOnly: every invocation writes only the element it
	// was invoked on.
	WritesOwnElementOnly bool
	// ReadsSharedData: invocations read locations other invocations may
	// write (e.g. neighbouring elements).
	ReadsSharedData bool
	// DynamicStructure: the write set depends on run-time data (pointer
	// chasing, adaptive refinement) and cannot be analyzed statically.
	DynamicStructure bool
	// HasReduction: the body contains reduction assignments.
	HasReduction bool
}

// Plan is the lowered implementation strategy.
type Plan struct {
	Mode Mode
	// FlushBetweenInvocations: the compiler could not prove distinct
	// invocations on one processor access disjoint locations, so a
	// FlushCopies directive separates them (Section 5.1).
	FlushBetweenInvocations bool
}

// Lower plays the compiler: choose a plan for a parallel function with the
// given access behaviour on the given memory system.  On a coherent-only
// system the only correct lowering is explicit copying; under LCM the
// directives implement the semantics directly.
func Lower(sum AccessSummary, sys System) Plan {
	if !sys.IsLCM() {
		return Plan{Mode: ModeCopying}
	}
	flush := sum.ReadsSharedData || sum.DynamicStructure || sum.HasReduction ||
		!sum.WritesOwnElementOnly
	return Plan{Mode: ModeLCM, FlushBetweenInvocations: flush}
}

// Scheduler partitions an index space across nodes, possibly differently
// each iteration.
type Scheduler interface {
	Name() string
	// Range returns the half-open index range node executes during
	// iteration iter of a total-element parallel call.
	Range(node, p, iter, total int) (lo, hi int)
}

// StaticSchedule partitions once: node i always owns the i-th contiguous
// chunk (the paper's "-stat" variants, which let Stache keep chunk
// interiors local across iterations).
type StaticSchedule struct{}

// Name implements Scheduler.
func (StaticSchedule) Name() string { return "static" }

// Range implements Scheduler.
func (StaticSchedule) Range(node, p, _, total int) (int, int) {
	return chunk(node, p, total)
}

// RotatingSchedule re-partitions every iteration, assigning node i chunk
// (i+iter) mod p.  It models the paper's dynamically partitioned variants:
// each iteration a processor works on a different part of the aggregate,
// so protocols that rely on repeatable placement lose their locality.
type RotatingSchedule struct{}

// Name implements Scheduler.
func (RotatingSchedule) Name() string { return "dynamic" }

// Range implements Scheduler.
func (RotatingSchedule) Range(node, p, iter, total int) (int, int) {
	return chunk((node+iter)%p, p, total)
}

// chunk splits total into p nearly equal contiguous ranges.
func chunk(i, p, total int) (int, int) {
	per := (total + p - 1) / p
	lo := i * per
	hi := lo + per
	if lo > total {
		lo = total
	}
	if hi > total {
		hi = total
	}
	return lo, hi
}

// ForEach runs one parallel call's invocations assigned to node n by sched
// for iteration iter: body(idx) for each index, separated by FlushCopies
// when the plan requires it.  The caller ends the parallel call with
// EndParallel (all nodes must).
func ForEach(n *tempest.Node, sched Scheduler, plan Plan, iter, total int, body func(idx int)) {
	lo, hi := sched.Range(n.ID, n.M.P, iter, total)
	for idx := lo; idx < hi; idx++ {
		body(idx)
		if plan.FlushBetweenInvocations && plan.Mode == ModeLCM {
			n.FlushCopies()
		}
	}
}

// EndParallel completes a parallel call: under LCM it reconciles all
// private copies into the new global state; under explicit copying it is
// the barrier after which the program swaps its two copies.  Every node
// must call it.
func EndParallel(n *tempest.Node) { n.ReconcileCopies() }
