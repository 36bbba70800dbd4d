package lcmperf

import (
	"fmt"
	"io"
	"time"

	"lcm/internal/cstar"
	"lcm/internal/harness"
	"lcm/internal/net"
	"lcm/internal/workloads"
)

var systemsByName = map[string]cstar.System{
	"copying": cstar.Copying, "lcm-scc": cstar.LCMscc, "lcm-mcc": cstar.LCMmcc,
}

// simObservables is everything a run reports about the simulated machine;
// two runs of one (cell, system, seed) must produce equal values.
type simObservables struct {
	cycles int64
	c      any // stats.NodeCounters
	s      any // stats.Snapshot
}

// simTarget runs a workload's cells × systems in this process, through
// the same calls as the root bench_test.go.
type simTarget struct {
	o     Options
	suite *harness.Suite
}

// setUp builds the specs and runs every cell once with the sequential
// reference check on.
func (t *simTarget) setUp() ([]op, error) {
	t.suite = harness.New(io.Discard)
	t.suite.Scale = t.o.Workload.Scale
	t.suite.Cfg = workloads.Config{P: t.o.P, SchedSeed: t.o.Seed}
	if t.o.Workload.Net != "" {
		t.suite.Cfg.Net = &net.Config{Model: t.o.Workload.Net}
	}
	return t.runAll(true, nil, -1).ops, nil
}

func (t *simTarget) pass(_ int, tr *tracer, parent int) pass {
	return t.runAll(false, tr, parent)
}

func (t *simTarget) runAll(verify bool, tr *tracer, parent int) pass {
	var p pass
	t0 := time.Now()
	for _, cell := range t.o.Workload.Cells {
		for _, system := range t.o.Workload.Systems {
			p.ops = append(p.ops, t.run(cell, system, verify, tr, parent))
		}
	}
	p.wall = time.Since(t0)
	return p
}

// run executes one (cell, system).  Input generation, machine
// construction and the run itself all happen inside workloads.Run*.
func (t *simTarget) run(cell, system string, verify bool, tr *tracer, parent int) op {
	id := cell + "/" + system
	sys := systemsByName[system]
	cfg := t.suite.Cfg
	cfg.Verify = verify

	h := tr.begin("harness.spec", id, parent, 0)
	var run func() workloads.Result
	switch cell {
	case "Stencil-static", "Stencil-dynamic":
		spec := t.suite.StencilSpec(cell[len("Stencil-"):])
		spec.Iters = t.iters(spec.Iters)
		run = func() workloads.Result { return workloads.RunStencil(sys, spec, cfg) }
	case "Adaptive-static", "Adaptive-dynamic":
		spec := t.suite.AdaptiveSpec(cell[len("Adaptive-"):])
		spec.Iters = t.iters(spec.Iters)
		run = func() workloads.Result { return workloads.RunAdaptive(sys, spec, cfg) }
	case "Threshold":
		spec := t.suite.ThresholdSpec()
		spec.Iters = t.iters(spec.Iters)
		run = func() workloads.Result { return workloads.RunThreshold(sys, spec, cfg) }
	case "Unstructured":
		spec := t.suite.UnstructuredSpec()
		spec.Seed = t.o.Seed
		spec.Iters = t.iters(spec.Iters)
		run = func() workloads.Result { return workloads.RunUnstructured(sys, spec, cfg) }
	}
	tr.end(h)
	if run == nil {
		return op{id: id, err: fmt.Errorf("unknown cell %q", cell)}
	}

	h = tr.begin("workloads.run."+cell+"."+system, id, parent, 0)
	t0 := time.Now()
	r := run()
	wall := time.Since(t0)
	tr.end(h)

	n := counts{
		Cycles: r.Cycles, Hits: r.C.Hits, Misses: r.C.Misses, RemoteMisses: r.C.RemoteMisses,
		Upgrades: r.C.Upgrades, Invalidations: r.C.InvalidationsSent,
		Marks: r.C.Marks, Flushes: r.C.Flushes, WordsFlushed: r.C.WordsFlushed,
		Reconciles: r.S.Reconciles, CleanCopies: r.CleanCopies(),
		CopiedWords: r.C.CopiedWords, Barriers: r.C.Barriers,
		Msgs: r.C.Net.TotalMsgs(), Bytes: r.C.Net.Bytes, QueueCycles: r.C.Net.QueueCycles,
		MaxLinkBusy: r.Links.MaxBusy, KVOps: r.KV.Ops,
	}
	x := op{
		id: id, cell: cell, system: system, wall: wall, err: r.Err,
		exact: simObservables{cycles: r.Cycles, c: r.C, s: r.S},
	}
	if sys.IsLCM() {
		x.lcm = n
	} else {
		x.stache = n
	}
	return x
}

// iters applies the workload's iteration override to a spec's own count.
func (t *simTarget) iters(specIters int) int {
	if t.o.Workload.Iters != 0 {
		return t.o.Workload.Iters
	}
	return specIters
}

func (t *simTarget) layerMetrics(_, _ []pass, _ map[string]float64) {}

func (t *simTarget) close() error { return nil }
