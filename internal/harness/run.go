package harness

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"lcm/internal/cost"
	"lcm/internal/cstar"
	"lcm/internal/net"
	"lcm/internal/workloads"
)

// This file is the library face of the harness: grid cells are named
// values that callers (cmd/lcmbench, internal/serve) select, run and
// observe through a progress callback, instead of the harness owning the
// whole campaign and its output files.  The rendered tables still go to
// Suite.Out; the raw results come back to the caller.

// CellSpec names one grid cell: a workload plus, where the workload has
// one, a schedule knob.
type CellSpec struct {
	// Workload is "Stencil", "Adaptive", "Threshold", "Unstructured" or
	// "KV".
	Workload string
	// Sched is "static" or "dynamic" for Stencil and Adaptive, the
	// request mix ("read" or "write") for KV, and empty for the
	// workloads without a knob.
	Sched string
}

// Label renders the canonical cell name ("Stencil-static", "Threshold").
func (c CellSpec) Label() string {
	if c.Sched == "" {
		return c.Workload
	}
	return c.Workload + "-" + c.Sched
}

// GridCells returns the six Table-1 / Figure-2 / Figure-3 cells in their
// canonical (paper) order.
func GridCells() []CellSpec {
	return []CellSpec{
		{"Stencil", "static"},
		{"Stencil", "dynamic"},
		{"Adaptive", "static"},
		{"Adaptive", "dynamic"},
		{"Threshold", ""},
		{"Unstructured", ""},
	}
}

// KVCells returns the serving-traffic cells: the sharded KV workload
// under its read-mostly and write-heavy mixes.  They are selectable by
// name (-cells, lcmd Cells) and deliberately not part of GridCells, so
// the Table-1 campaigns — and the committed BENCH_seed.json trajectory
// they are gated against — keep their historical shape.
func KVCells() []CellSpec {
	return []CellSpec{
		{"KV", "read"},
		{"KV", "write"},
	}
}

// AllCells returns every selectable cell: the Table-1 grid followed by
// the serving-traffic cells.
func AllCells() []CellSpec {
	return append(GridCells(), KVCells()...)
}

// UnknownCellError reports a cell name that resolves to no selectable
// cell, carrying the offending name and the known cell names so callers
// can render a structured diagnostic (and tests can assert on more than
// message text).
type UnknownCellError struct {
	// Name is the unresolvable input, as given.
	Name string
	// Known lists every valid cell label in canonical order.
	Known []string
}

func (e *UnknownCellError) Error() string {
	return fmt.Sprintf("unknown grid cell %q (want one of %s)", e.Name, strings.Join(e.Known, ", "))
}

// ParseCell resolves a cell name to its spec.  Both the full schedule
// names ("Stencil-static") and the table abbreviations ("Stencil-stat")
// are accepted; matching is case-insensitive.  An unresolvable name —
// including an empty segment from a stray comma — is an *UnknownCellError.
func ParseCell(name string) (CellSpec, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	for _, c := range AllCells() {
		if strings.ToLower(c.Label()) == want {
			return c, nil
		}
		// The paper's tables abbreviate the schedule ("Stencil-stat").
		abbrev := map[string]string{"static": "stat", "dynamic": "dyn"}[c.Sched]
		if abbrev != "" && strings.ToLower(c.Workload+"-"+abbrev) == want {
			return c, nil
		}
	}
	return CellSpec{}, &UnknownCellError{Name: name, Known: CellNames()}
}

// ParseCells resolves a list of cell names; no names at all select the
// Table-1 grid.
func ParseCells(names []string) ([]CellSpec, error) {
	if len(names) == 0 {
		return GridCells(), nil
	}
	cells := make([]CellSpec, len(names))
	for i, name := range names {
		c, err := ParseCell(name)
		if err != nil {
			return nil, err
		}
		cells[i] = c
	}
	return cells, nil
}

// CellNames returns the labels of every selectable cell in canonical
// order.
func CellNames() []string {
	var names []string
	for _, c := range AllCells() {
		names = append(names, c.Label())
	}
	return names
}

// Tuple is the machine tuple as it arrives from outside the program — the
// flags of a command, the fields of a job spec — before anything has looked
// at it.
type Tuple struct {
	P, Scale, BlockSize int
	KVSkew              float64
	// Net is "" or "uniform", or "fattree" with its link serialization
	// (cycles per byte) and network-interface occupancy (0 = defaults).
	Net           string
	LinkBW, NILat int64
}

// Config validates the tuple and builds the machine configuration it
// describes: the one place every front end's input is checked, so that a
// value one of them refuses is refused by all, and a value no run reads
// (link parameters under the uniform model) is refused rather than ignored.
// Block sizes above the protocols' element-tracking limit pass and fail per
// run with a configuration error.
func (t Tuple) Config() (workloads.Config, error) {
	uniform := t.Net == "" || t.Net == "uniform"
	var err error
	switch {
	case t.P < 1:
		err = fmt.Errorf("p must be >= 1, got %d", t.P)
	case t.Scale < 1:
		err = fmt.Errorf("scale must be >= 1, got %d", t.Scale)
	case t.BlockSize != 0 && (t.BlockSize < 8 || t.BlockSize&(t.BlockSize-1) != 0):
		err = fmt.Errorf("blocksize must be a power of two >= 8, got %d", t.BlockSize)
	case t.KVSkew < 0:
		err = fmt.Errorf("kvskew must be >= 0, got %v", t.KVSkew)
	case t.LinkBW < 0 || t.NILat < 0:
		err = fmt.Errorf("linkbw and nilat must be >= 0, got %d and %d", t.LinkBW, t.NILat)
	case uniform && (t.LinkBW != 0 || t.NILat != 0):
		err = errors.New("linkbw and nilat apply only to the fattree network")
	}
	if err != nil {
		return workloads.Config{}, err
	}
	cfg := workloads.Config{P: t.P, BlockSize: uint32(t.BlockSize)}
	if !uniform {
		cfg.Net = &net.Config{Model: t.Net, CyclesPerByte: t.LinkBW, NICycles: t.NILat}
		if _, err := net.New(*cfg.Net, t.P, cost.Default()); err != nil {
			return workloads.Config{}, err
		}
	}
	return cfg, nil
}

// Progress is one run-completion notification delivered to
// Suite.OnProgress: the campaign position and the run that just finished,
// with its host cost in Wall.  A failed run carries its Err; the campaign
// continues, and the caller decides whether failures are fatal.
type Progress struct {
	Cell        string
	Done, Total int
	Result      workloads.Result
}

// Run executes one cell under one memory system and machine configuration.
// It is the one place a cell name meets its workload: every campaign, and
// the tools that run a single cell, resolve through it.  A cell that is not
// one of AllCells comes back as a failed result.
func (s *Suite) Run(c CellSpec, sys cstar.System, cfg workloads.Config) workloads.Result {
	if slices.Contains(AllCells(), c) {
		switch c.Workload {
		case "Stencil":
			return workloads.RunStencil(sys, s.StencilSpec(c.Sched), cfg)
		case "Adaptive":
			return workloads.RunAdaptive(sys, s.AdaptiveSpec(c.Sched), cfg)
		case "Threshold":
			return workloads.RunThreshold(sys, s.ThresholdSpec(), cfg)
		case "Unstructured":
			return workloads.RunUnstructured(sys, s.UnstructuredSpec(), cfg)
		case "KV":
			return workloads.RunKV(sys, s.KVSpec(c.Sched), cfg)
		}
	}
	return workloads.Result{Workload: c.Workload, Sched: c.Sched, System: sys,
		Err: &UnknownCellError{Name: c.Label(), Known: CellNames()}}
}

// RunCells runs the given grid cells under all three memory systems,
// invoking Suite.OnProgress (when set) after every completed (cell,
// system) run.  The result slice is ordered like cells; each element maps
// system to its measurements, exactly as the whole-grid campaign produces
// them.  An unknown cell is an error before anything runs.
func (s *Suite) RunCells(cells []CellSpec) ([]map[cstar.System]workloads.Result, error) {
	for _, c := range cells {
		if !slices.Contains(AllCells(), c) {
			return nil, &UnknownCellError{Name: c.Label(), Known: CellNames()}
		}
	}
	rows := make([]map[cstar.System]workloads.Result, len(cells))
	for i, group := range s.walk(campaign{cells: cells, systems: systems, points: []point{identity}}) {
		row := i / len(systems) // one group per (cell, system)
		if rows[row] == nil {
			rows[row] = make(map[cstar.System]workloads.Result, len(systems))
		}
		rows[row][group[0].System] = group[0]
	}
	return rows, nil
}

// Results flattens campaign rows into the order every sink writes them in:
// row by row, and within a row copying, lcm-scc, lcm-mcc, passing over a
// system the row did not run.
func Results(rows []map[cstar.System]workloads.Result) []workloads.Result {
	out := make([]workloads.Result, 0, len(rows)*len(reportOrder))
	for _, row := range rows {
		for _, sys := range reportOrder {
			if r, ok := row[sys]; ok {
				out = append(out, r)
			}
		}
	}
	return out
}
