package harness

import (
	"fmt"
	"time"

	"lcm/internal/cstar"
	"lcm/internal/stats"
	"lcm/internal/workloads"
)

// Every experiment in this package is the paper's grid with one axis
// varied: cells × systems × points.  A campaign says which; walk is the
// one loop that runs it, and pivot the one table it renders through.

// point is one setting of a campaign's varied axis: the label its results
// are reported under and the function deriving the run's configuration
// from the suite's (it sets P, Net, BlockSize, CacheLines or a fault plan).
type point struct {
	label string
	apply func(workloads.Config) workloads.Config
}

// axis makes one point per value: label is the format its value is
// reported under, set puts the value into the run's configuration.
func axis[T any](vals []T, label string, set func(*workloads.Config, T)) []point {
	points := make([]point, len(vals))
	for i, v := range vals {
		points[i] = point{fmt.Sprintf(label, v), func(cfg workloads.Config) workloads.Config {
			set(&cfg, v)
			return cfg
		}}
	}
	return points
}

// identity is the single point of a campaign that varies nothing.
var identity = point{apply: func(cfg workloads.Config) workloads.Config { return cfg }}

// campaign is an experiment as data: every cell runs under every system at
// every point.
type campaign struct {
	cells   []CellSpec
	systems []cstar.System
	points  []point
	// each, when non-nil, is handed every (cell, system)'s results across
	// the points as they complete, so a long campaign reports as it runs.
	each func(cell CellSpec, group []workloads.Result)
}

// walk runs a campaign — cells, then systems, then points — stamping every
// result with its host wall-clock duration and reporting progress after
// every run.  It returns each (cell, system)'s results across the points,
// in the order they ran.
func (s *Suite) walk(c campaign) [][]workloads.Result {
	total, done := len(c.cells)*len(c.systems)*len(c.points), 0
	var groups [][]workloads.Result
	for _, cell := range c.cells {
		for _, sys := range c.systems {
			group := make([]workloads.Result, len(c.points))
			for i, pt := range c.points {
				t0 := time.Now()
				r := s.Run(cell, sys, pt.apply(s.Cfg))
				r.Wall = time.Since(t0)
				group[i] = r
				done++
				if s.OnProgress != nil {
					s.OnProgress(Progress{Cell: cell.Label(), Done: done, Total: total, Result: r})
				}
			}
			if c.each != nil {
				c.each(cell, group)
			}
			groups = append(groups, group)
		}
	}
	return groups
}

// col is one pivot-table column: its header and the text it shows for one
// row's results.
type col struct {
	name string
	text func(row []workloads.Result) string
}

// pick shows one metric of the row's i-th result.
func pick(name string, i int, metric func(workloads.Result) string) col {
	return col{name, func(row []workloads.Result) string { return metric(row[i]) }}
}

// speedup shows how many times faster the row's i-th result ran than its
// base-th.
func speedup(name string, base, i int) col {
	return col{name, func(row []workloads.Result) string {
		return stats.Speedup(row[base].Cycles, row[i].Cycles) + "x"
	}}
}

func cycles(r workloads.Result) string { return stats.GroupInt(r.Cycles) }

// pivot prints one table — a row per point, its columns computed from that
// row's results — followed by the note that says what the table shows.
func (s *Suite) pivot(title string, points []point, rows [][]workloads.Result, cols []col, note string) {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.name
	}
	tb := stats.NewTable(title, names...)
	for i, row := range rows {
		vals := make(map[string]string, len(cols))
		for _, c := range cols {
			vals[c.name] = c.text(row)
		}
		tb.AddRow(points[i].label, vals)
	}
	fmt.Fprintf(s.Out, "%s\n%s\n\n", tb, note)
}

// sweep runs one cell at every point under the given systems and prints
// the pivot of the results: a row per point, holding that point's result
// under each system.  It returns the rows.
func (s *Suite) sweep(title string, cell CellSpec, points []point, systems []cstar.System, cols []col, note string) [][]workloads.Result {
	rows := make([][]workloads.Result, len(points))
	for _, group := range s.walk(campaign{cells: []CellSpec{cell}, systems: systems, points: points}) {
		for i, r := range group {
			rows[i] = append(rows[i], r)
		}
	}
	s.pivot(title, points, rows, cols, note)
	return rows
}
