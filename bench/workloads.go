package lcmperf

import "fmt"

// Workload is one named set of inputs.  Simulator workloads run Cells ×
// Systems in this process; the kv workload drives a real lcmd.
type Workload struct {
	Name string
	Why  string
	// KV marks the workload that drives a real lcmd.
	KV bool
	// Cells and Systems span the (cell, system) runs of one simulator
	// pass, in run order.
	Cells   []string
	Systems []string
	// Scale divides the paper's problem sizes (harness.Suite.Scale).
	Scale int
	// Iters, when not 0, replaces the specs' iteration count: the full
	// problem size for fewer steps keeps the paper's ratio of boundary
	// misses to interior hits in a pass short enough to repeat.
	Iters int
	// Net is the interconnect model ("" = uniform).
	Net string
	// Ops is the number of cache-hit requests in the warm phase of one lcmd
	// pass, after the kvTuples uncached jobs of its cold phase (a simulator
	// pass is Cells × Systems).
	Ops int
	// Restart sets the target up afresh before every pass.  lcmd keeps
	// every job it has run, and a request costs more the more it keeps:
	// without it the passes of a run are not comparable (README.md,
	// "Noise").  The extra set-ups are samples of setup_s.
	Restart bool
}

// Sizes are chosen so that one pass takes 0.5-1.5 s of one core: a run
// then holds some twenty to fifty passes, and its fastest one is steady.
// P=32 and 32-byte blocks are the paper's machine.
var Workloads = []Workload{
	{
		Name:    "hit-path",
		Why:     "paper-size grids, 12 steps: 82 M tag-checked accesses, 0.6 % of them misses; tempest hit path and cstar aggregates do the work; bypasses core and net queueing",
		Cells:   []string{"Stencil-static", "Threshold"},
		Systems: []string{"copying"},
		Scale:   1,
		Iters:   12,
	},
	{
		Name:    "lcm-miss",
		Why:     "Stencil under lcm-scc and lcm-mcc: a protocol miss, mark/flush and scheduler grant per fault dominate; the cells that are ~90 % of grid wall time",
		Cells:   []string{"Stencil-static", "Stencil-dynamic"},
		Systems: []string{"lcm-scc", "lcm-mcc"},
		Scale:   8,
	},
	{
		Name:    "irregular-fattree",
		Why:     "irregular sharing on the fat tree: ownership migration, invalidation fan-out, per-message routing and queueing, pointer-chasing inputs",
		Cells:   []string{"Adaptive-dynamic", "Unstructured", "Threshold"},
		Systems: []string{"copying", "lcm-scc", "lcm-mcc"},
		Scale:   4,
		Net:     "fattree",
	},
	{
		Name:    "kv-lcmd",
		Why:     "a real lcmd, 2 closed-loop clients: 4 uncached KV-read/KV-write grid jobs, then 2000 resubmissions served from the result cache; serve and harness layers, cold beside warm",
		KV:      true,
		Scale:   4,
		Ops:     2000,
		Restart: true,
	},
}

// Lookup returns the workload called name.
func Lookup(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}
