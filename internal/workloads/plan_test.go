package workloads

import (
	"math"
	"testing"

	"lcm/internal/cstar"
)

// The C** compiler's decisions (Section 6) are made here by hand: each
// workload declares the access summary the compiler would extract, and
// cstar.Lower turns it into a plan.  Under the Copying plan the workload
// itself carries the explicit-copy code the compiler would emit.  This
// table names both for every workload and system, so a changed summary, a
// changed Lower or a changed hand-coded lowering shows up as one row.

// copyLowering is how a workload moves the old iteration's values forward.
type copyLowering int

const (
	// memorySystem: LCM keeps the old values in clean copies; the program
	// copies nothing.
	memorySystem copyLowering = iota
	// pointerSwap: every element is rewritten each iteration, so the
	// two meshes trade places and no value is copied.
	pointerSwap
	// copyUnchanged: the program copies each value the sweep leaves
	// unchanged into the new mesh (Threshold, Section 6.3).
	copyUnchanged
	// copyAll: every allocated cell is copied to the old mesh before the
	// sweep, since its write set is unknown (Adaptive, Section 6.2).
	copyAll
)

func (l copyLowering) String() string {
	return [...]string{"memory system", "pointer swap", "copy unchanged", "copy all"}[l]
}

func TestWorkloadPlans(t *testing.T) {
	stencil := StencilSpec{N: 24, Iters: 4, Sched: "static"}
	threshold := ThresholdSpec{N: 24, Iters: 4, Threshold: 0.05, Sources: 3}
	adaptive := AdaptiveSpec{N: 8, MaxDepth: 3, Iters: 4, Sched: "dynamic", Electrodes: 3, SubdivThreshold: 4}
	unstructured := UnstructuredSpec{Nodes: 64, Edges: 256, Iters: 4, Seed: 42, Stride: 8}

	lcm := cstar.Plan{Mode: cstar.ModeLCM, FlushBetweenInvocations: true}
	copying := cstar.Plan{Mode: cstar.ModeCopying}
	workloads := map[string]struct {
		sum cstar.AccessSummary
		run func(cstar.System, Config) Result
	}{
		"Stencil":      {stencilSummary, func(sys cstar.System, cfg Config) Result { return RunStencil(sys, stencil, cfg) }},
		"Threshold":    {stencilSummary, func(sys cstar.System, cfg Config) Result { return RunThreshold(sys, threshold, cfg) }},
		"Adaptive":     {adaptiveSummary, func(sys cstar.System, cfg Config) Result { return RunAdaptive(sys, adaptive, cfg) }},
		"Unstructured": {unstructuredSummary, func(sys cstar.System, cfg Config) Result { return RunUnstructured(sys, unstructured, cfg) }},
	}
	rows := []struct {
		workload string
		sys      cstar.System
		plan     cstar.Plan
		copies   copyLowering
	}{
		{"Stencil", cstar.Copying, copying, pointerSwap},
		{"Stencil", cstar.LCMscc, lcm, memorySystem},
		{"Stencil", cstar.LCMmcc, lcm, memorySystem},
		{"Threshold", cstar.Copying, copying, copyUnchanged},
		{"Threshold", cstar.LCMscc, lcm, memorySystem},
		{"Threshold", cstar.LCMmcc, lcm, memorySystem},
		{"Adaptive", cstar.Copying, copying, copyAll},
		{"Adaptive", cstar.LCMscc, lcm, memorySystem},
		{"Adaptive", cstar.LCMmcc, lcm, memorySystem},
		{"Unstructured", cstar.Copying, copying, pointerSwap},
		{"Unstructured", cstar.LCMscc, lcm, memorySystem},
		{"Unstructured", cstar.LCMmcc, lcm, memorySystem},
	}
	for _, row := range rows {
		w := workloads[row.workload]
		name := row.workload + "/" + row.sys.String()
		if got := cstar.Lower(w.sum, row.sys); got != row.plan {
			t.Errorf("%s: Lower = %+v, want %+v", name, got, row.plan)
		}
		r := w.run(row.sys, Config{P: 4, Verify: true})
		if r.Err != nil {
			t.Errorf("%s: %v", name, r.Err)
			continue
		}
		copied := r.C.CopiedWords
		var ok bool
		switch row.copies {
		case memorySystem, pointerSwap:
			ok = copied == 0
		case copyUnchanged:
			// Every visited cell is either updated, a fixed source (whose
			// copy is not counted) or copied unchanged.
			inner := threshold.N - 2
			visited := inner * inner * threshold.Iters
			updated := int(math.Round(r.Extra["modified_ratio"] * float64(visited)))
			fixed := len(thresholdSources(threshold)) * threshold.Iters
			ok = copied > 0 && int(copied) == visited-updated-fixed
		case copyAll:
			// At least one cell per root each iteration, at most the
			// final (largest) tree's cells.
			roots := adaptive.N * adaptive.N * adaptive.Iters
			ok = copied >= int64(roots) && copied <= int64(r.Extra["cells"])*int64(adaptive.Iters)
		}
		if !ok {
			t.Errorf("%s: %d words copied by the program, not what %q lowering copies", name, copied, row.copies)
		}
	}
}
