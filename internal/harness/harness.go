// Package harness runs the paper's experiments and renders their tables
// and figures as text: Table 1 (cache misses and clean copies), Figure 2
// (Stencil execution time) and Figure 3 (Adaptive, Threshold and
// Unstructured execution time), plus the Section 7 ablations (reductions,
// false sharing, stale data).
//
// Absolute cycle counts come from the simulator's cost model; the
// reproduction targets the paper's relative claims, which each figure
// prints alongside the measurements (see EXPERIMENTS.md).
package harness

import (
	"fmt"
	"io"

	"lcm/internal/cstar"
	"lcm/internal/stats"
	"lcm/internal/workloads"
)

// Suite configures one experiment campaign.
type Suite struct {
	// Cfg is the machine configuration (paper: P=32, 32-byte blocks).
	Cfg workloads.Config
	// Scale divides the problem sizes; 1 reproduces the paper's
	// parameters, larger values give proportionally smaller runs for
	// quick checks.  Iteration counts shrink with the square root so
	// that scaled runs still cover multiple phases.
	Scale int
	// Out receives the rendered tables.
	Out io.Writer
	// OnProgress, when non-nil, is invoked after every completed run of
	// every campaign (see Progress).  It lets callers — the lcmd job
	// server — stream campaign state without the harness writing anywhere
	// but Out.
	OnProgress func(Progress)
	// KVSkew overrides the KV cells' Zipf exponent (0 = the workload
	// default of 0.99); KVReshard their reshard cadence in phases
	// (0 = default, negative = resharding off).  Both are part of the
	// deterministic run tuple.
	KVSkew    float64
	KVReshard int
}

// New creates a Suite with paper defaults writing to out.
func New(out io.Writer) *Suite {
	return &Suite{Cfg: workloads.Config{P: 32, Verify: false}, Scale: 1, Out: out}
}

func (s *Suite) scaleDim(n int) int {
	v := n / s.Scale
	if v < 16 {
		v = 16
	}
	return v
}

func (s *Suite) scaleIters(n int) int {
	v := n
	if s.Scale > 1 {
		v = n / s.Scale
	}
	if v < 3 {
		v = 3
	}
	return v
}

// StencilSpec returns the (possibly scaled) Stencil configuration.
func (s *Suite) StencilSpec(sched string) workloads.StencilSpec {
	p := workloads.PaperStencil(sched)
	p.N = s.scaleDim(p.N)
	p.Iters = s.scaleIters(p.Iters)
	return p
}

// ThresholdSpec returns the (possibly scaled) Threshold configuration.
func (s *Suite) ThresholdSpec() workloads.ThresholdSpec {
	p := workloads.PaperThreshold()
	p.N = s.scaleDim(p.N)
	p.Iters = s.scaleIters(p.Iters)
	return p
}

// AdaptiveSpec returns the (possibly scaled) Adaptive configuration.
func (s *Suite) AdaptiveSpec(sched string) workloads.AdaptiveSpec {
	p := workloads.PaperAdaptive(sched)
	p.N = s.scaleDim(p.N)
	p.Iters = s.scaleIters(p.Iters)
	return p
}

// UnstructuredSpec returns the (possibly scaled) Unstructured configuration.
func (s *Suite) UnstructuredSpec() workloads.UnstructuredSpec {
	p := workloads.PaperUnstructured()
	if s.Scale > 1 {
		// Floors, as every other spec has: a graph needs two vertices
		// and an edge per vertex (graph.Build).
		p.Nodes = max(p.Nodes/s.Scale, 2)
		p.Edges = max(p.Edges/s.Scale, p.Nodes)
		p.Iters = s.scaleIters(p.Iters)
	}
	return p
}

// KVSpec returns the (possibly scaled) serving-workload configuration
// for the given request mix, with the Suite's skew/reshard overrides
// applied.
func (s *Suite) KVSpec(mix string) workloads.KVSpec {
	p := workloads.PaperKV(mix)
	if s.Scale > 1 {
		// Floors keep heavily scaled runs meaningful: at least 32 keys
		// per shard (one maximum-size block) and one aligned op chunk
		// per stream; workloads.KVSpec.norm rounds the remainders up.
		if p.Keys /= s.Scale; p.Keys < p.Shards*32 {
			p.Keys = p.Shards * 32
		}
		if p.OpsPerStream /= s.Scale; p.OpsPerStream < 32 {
			p.OpsPerStream = 32
		}
		p.Phases = s.scaleIters(p.Phases)
	}
	if s.KVSkew != 0 {
		p.Skew = s.KVSkew
	}
	if s.KVReshard != 0 {
		p.ReshardEvery = s.KVReshard
	}
	return p
}

// systems is the order a grid row's runs execute in; reportOrder the order
// tables, figures and files list them in.
var (
	systems     = []cstar.System{cstar.LCMscc, cstar.LCMmcc, cstar.Copying}
	reportOrder = []cstar.System{cstar.Copying, cstar.LCMscc, cstar.LCMmcc}
)

// Table1 reproduces the paper's Table 1: cache misses (in thousands) per
// system and clean copies (in thousands) for the two LCM variants.
func (s *Suite) Table1(rows []map[cstar.System]workloads.Result) {
	tb := stats.NewTable(
		"Table 1: benchmark cache misses and clean copies (in thousands)",
		"miss:scc", "miss:mcc", "miss:Copying", "clean:scc", "clean:mcc")
	for _, row := range rows {
		name := row[cstar.LCMscc].Label()
		tb.AddRow(name, map[string]string{
			"miss:scc":     stats.Thousands(row[cstar.LCMscc].C.Misses),
			"miss:mcc":     stats.Thousands(row[cstar.LCMmcc].C.Misses),
			"miss:Copying": stats.Thousands(row[cstar.Copying].C.Misses),
			"clean:scc":    stats.Thousands(row[cstar.LCMscc].CleanCopies()),
			"clean:mcc":    stats.Thousands(row[cstar.LCMmcc].CleanCopies()),
		})
	}
	fmt.Fprintln(s.Out, tb.String())
}

// figure renders one execution-time bar group.
func (s *Suite) figure(title string, rows []map[cstar.System]workloads.Result) {
	fmt.Fprintln(s.Out, title)
	var longest int64
	for _, r := range Results(rows) {
		longest = max(longest, r.Cycles)
	}
	for _, row := range rows {
		base := row[cstar.Copying].Cycles
		fmt.Fprintf(s.Out, "  %s\n", row[cstar.LCMscc].Label())
		for _, sys := range reportOrder {
			r := row[sys]
			fmt.Fprintf(s.Out, "    %-8s %14s cycles  %-40s x%s vs Stache\n",
				sys, stats.GroupInt(r.Cycles), stats.Bar(r.Cycles, longest, 40),
				stats.Speedup(base, r.Cycles))
		}
	}
	fmt.Fprintln(s.Out)
}

// Fig2 reproduces Figure 2: Stencil execution time, static and dynamic.
func (s *Suite) Fig2(rows []map[cstar.System]workloads.Result) {
	s.figure("Figure 2: Stencil execution time", rows[:2])
	fmt.Fprintln(s.Out, "  paper: Stencil-stat ~5x faster under Stache; Stencil-dyn ~2% faster under LCM-mcc;")
	fmt.Fprintln(s.Out, "         LCM-scc ~4x slower than LCM-mcc with ~8x its misses.")
	fmt.Fprintln(s.Out)
}

// Fig3 reproduces Figure 3: Adaptive, Threshold, Unstructured times.
func (s *Suite) Fig3(rows []map[cstar.System]workloads.Result) {
	s.figure("Figure 3: benchmark execution time", rows[2:])
	fmt.Fprintln(s.Out, "  paper: Adaptive-dyn ~1.9x faster under LCM-mcc; Threshold 97%/74% faster under")
	fmt.Fprintln(s.Out, "         LCM-mcc/scc; Unstructured 19-28% faster under LCM.")
	fmt.Fprintln(s.Out)
}
