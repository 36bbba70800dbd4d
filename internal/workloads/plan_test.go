package workloads

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"lcm/internal/cstar"
	"lcm/internal/memsys"
	"lcm/internal/tempest"
)

// The C** compiler's decisions (Section 6) are made here by hand: each
// workload declares the access summary the compiler would extract, and
// cstar.Lower turns it into a plan.  Under the Copying plan the workload
// itself carries the explicit-copy code the compiler would emit.  This
// table names both for every workload and system, so a changed summary, a
// changed Lower or a changed hand-coded lowering shows up as one row.  Each
// row also pins what the workload's calls declare (cstar.Call), which the
// plan and the roles decide: a workload that changes its access pattern has
// to change its summary or its roles, and with them this column.

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
	copying := cstar.Plan{Mode: cstar.ModeCopying, OwnedWrites: true}
	// The declarations are pinned on smaller cells at P = 2 (declarations
	// renders them): the meshes are 18x18, so a node's chunk of the new copy
	// is eight rows of three blocks, the first and last shared with its
	// neighbours; Adaptive has four roots of one 8-word sub-pool each.
	workloads := map[string]struct {
		sum        cstar.AccessSummary
		run, small func(cstar.System, Config) Result
	}{
		"Stencil": {stencilSummary,
			func(sys cstar.System, cfg Config) Result { return RunStencil(sys, stencil, cfg) },
			func(sys cstar.System, cfg Config) Result {
				return RunStencil(sys, StencilSpec{N: 18, Iters: 2, Sched: "dynamic"}, cfg)
			}},
		"Threshold": {stencilSummary,
			func(sys cstar.System, cfg Config) Result { return RunThreshold(sys, threshold, cfg) },
			func(sys cstar.System, cfg Config) Result {
				return RunThreshold(sys, ThresholdSpec{N: 18, Iters: 2, Threshold: 0.05, Sources: 1}, cfg)
			}},
		"Adaptive": {adaptiveSummary,
			func(sys cstar.System, cfg Config) Result { return RunAdaptive(sys, adaptive, cfg) },
			func(sys cstar.System, cfg Config) Result {
				return RunAdaptive(sys, AdaptiveSpec{N: 2, MaxDepth: 1, Iters: 2, Sched: "dynamic", Electrodes: 1, SubdivThreshold: 4}, cfg)
			}},
		"Unstructured": {unstructuredSummary,
			func(sys cstar.System, cfg Config) Result { return RunUnstructured(sys, unstructured, cfg) },
			func(sys cstar.System, cfg Config) Result {
				return RunUnstructured(sys, UnstructuredSpec{Nodes: 4, Edges: 8, Iters: 2, Seed: 42, Stride: 8}, cfg)
			}},
	}
	const (
		adaptiveCopy0 = "mesh.val[0:16) mesh.child[0:16) mesh.count[0:16)"
		adaptiveCopy1 = "mesh.val[16:32) mesh.child[16:32) mesh.count[16:32)"
	)
	rows := []struct {
		workload string
		sys      cstar.System
		plan     cstar.Plan
		copies   copyLowering
		declares string
	}{
		{"Stencil", cstar.Copying, copying, pointerSwap, `
0: ro A.old; own A[32:208) | A[224:400)
1: ro A; own A.old[224:400) | A.old[32:208)`},
		{"Stencil", cstar.LCMscc, lcm, memorySystem, ""},
		{"Stencil", cstar.LCMmcc, lcm, memorySystem, ""},
		{"Threshold", cstar.Copying, copying, copyUnchanged, `
0: ro T.old; own T[32:208) | T[224:400)
1: ro T; own T.old[32:208) | T.old[224:400)`},
		{"Threshold", cstar.LCMscc, lcm, memorySystem, ""},
		{"Threshold", cstar.LCMmcc, lcm, memorySystem, ""},
		{"Adaptive", cstar.Copying, copying, copyAll, `
0: own ` + adaptiveCopy0 + ` mesh.old.val[0:16) | ` + adaptiveCopy1 + ` mesh.old.val[16:32)
1: ro mesh.old.val; own ` + adaptiveCopy0 + ` | ` + adaptiveCopy1 + `
2: own ` + adaptiveCopy1 + ` mesh.old.val[16:32) | ` + adaptiveCopy0 + ` mesh.old.val[0:16)
3: ro mesh.old.val; own ` + adaptiveCopy1 + ` | ` + adaptiveCopy0},
		{"Adaptive", cstar.LCMscc, lcm, memorySystem, ""},
		{"Adaptive", cstar.LCMmcc, lcm, memorySystem, ""},
		{"Unstructured", cstar.Copying, copying, pointerSwap, `
0: ro g.old g.off g.tgt; own g.val[0:16) | g.val[16:32)
1: ro g.val g.off g.tgt; own g.old[0:16) | g.old[16:32)`},
		// An LCM reconciliation is two barriers.
		{"Unstructured", cstar.LCMscc, lcm, memorySystem, `
0: ro g.off g.tgt
2: ro g.off g.tgt`},
		{"Unstructured", cstar.LCMmcc, lcm, memorySystem, `
0: ro g.off g.tgt
2: ro g.off g.tgt`},
	}
	for _, row := range rows {
		w := workloads[row.workload]
		name := row.workload + "/" + row.sys.String()
		if got := cstar.Lower(w.sum, row.sys); got != row.plan {
			t.Errorf("%s: Lower = %+v, want %+v", name, got, row.plan)
		}
		small := func(cfg Config) Result { return w.small(row.sys, cfg) }
		if got, want := declarations(t, name, small), strings.TrimPrefix(row.declares, "\n"); got != want {
			t.Errorf("%s declares\n%s\nwant\n%s", name, got, want)
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

	// KV lowers no summary: its calls declare what they read, the store in
	// the serve phase, but for the one after a reshard (5 under Copying),
	// whose old owners drop their copies of it; the intents and the
	// coherent shard map in the apply phase.  Under LCM only the shard
	// map's declaration is not a no-op.
	kv := KVSpec{Keys: 64, Shards: 4, Streams: 2, Phases: 3, OpsPerStream: 4, Mix: "read", ReshardEvery: 2, Seed: 7}
	lcmKV := `
2: ro KV.map
6: ro KV.map
12: ro KV.map`
	for sys, want := range map[cstar.System]string{cstar.Copying: `
0: ro KV.store
1: ro KV.intents KV.map
2: ro KV.store
3: ro KV.intents KV.map
6: ro KV.intents KV.map`, cstar.LCMscc: lcmKV, cstar.LCMmcc: lcmKV} {
		name := "KV/" + sys.String()
		if got := declarations(t, name, func(cfg Config) Result { return RunKV(sys, kv, cfg) }); got != want[1:] {
			t.Errorf("%s declares\n%s\nwant\n%s", name, got, want[1:])
		}
	}
}

// declared wraps a run's protocol to read back, as each node ends a call,
// what is declared for it (tempest.Machine.ReadOnly, tempest.Node.Owns).
type declared struct {
	tempest.Protocol
	m      *tempest.Machine
	phases map[int64]*phase
	order  []int64
}

// phase is what each node found declared at the end of one call: the
// regions read-only, and the ranges it owns, in 4-byte words from their
// region's base (every aggregate a call writes here has 4-byte elements).
type phase struct{ ro, own []string }

func (d *declared) KeepsCopies(r *memsys.Region) bool {
	k, ok := d.Protocol.(tempest.CopyKeeper)
	return ok && k.KeepsCopies(r)
}

func (d *declared) ReconcileCopies(n *tempest.Node) {
	ph := d.phases[n.Ctr.Barriers]
	if ph == nil {
		ph = &phase{make([]string, d.m.P), make([]string, d.m.P)}
		d.phases[n.Ctr.Barriers] = ph
		d.order = append(d.order, n.Ctr.Barriers)
	}
	as := d.m.AS
	var ro, own []string
	for _, r := range as.Regions() {
		first, end := as.Block(r.Base), as.Block(r.Base+memsys.Addr(r.Size)-1)+1
		if d.m.ReadOnly(first) {
			ro = append(ro, r.Name)
		}
		word := func(b memsys.BlockID) uint32 { return uint32(b-first) * as.BlockSize / 4 }
		for b := first; b < end; b++ {
			lo := b
			for b < end && n.Owns(b) {
				b++
			}
			if b > lo {
				own = append(own, fmt.Sprintf("%s[%d:%d)", r.Name, word(lo), word(b)))
			}
		}
	}
	ph.ro[n.ID], ph.own[n.ID] = strings.Join(ro, " "), strings.Join(own, " ")
	d.Protocol.ReconcileCopies(n)
}

// declarations runs one small cell at P = 2 and renders what its calls
// declared, one line per call that declares anything: the barriers its
// nodes had passed, the regions read-only, which every node declares alike,
// and each node's owned ranges.
func declarations(t *testing.T, name string, run func(Config) Result) string {
	d := &declared{phases: map[int64]*phase{}}
	cfg := Config{P: 2, Verify: true, tap: func(m *tempest.Machine) {
		d.m, d.Protocol = m, m.Protocol()
		m.SetProtocol(d)
	}}
	if r := run(cfg); r.Err != nil {
		t.Errorf("%s: %v", name, r.Err)
	}
	var lines []string
	for _, b := range d.order {
		ph := d.phases[b]
		if ph.ro[0] != ph.ro[1] {
			t.Errorf("%s: phase %d: node 0 finds %q read-only, node 1 %q", name, b, ph.ro[0], ph.ro[1])
		}
		var parts []string
		if ph.ro[0] != "" {
			parts = append(parts, "ro "+ph.ro[0])
		}
		if own := strings.Join(ph.own, " | "); own != " | " {
			parts = append(parts, "own "+own)
		}
		if parts != nil {
			lines = append(lines, fmt.Sprintf("%d: %s", b, strings.Join(parts, "; ")))
		}
	}
	return strings.Join(lines, "\n")
}
