package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime/debug"
	"strings"
	"time"

	"lcm/internal/check"
	"lcm/internal/cstar"
	"lcm/internal/harness"
)

// maxOutputEvents caps the harness output lines mirrored into a job's
// progress stream; past it the stream notes the truncation once (the
// full output still shapes netsweep result bytes).
const maxOutputEvents = 500

// lineEmitter mirrors harness Out lines into "output" progress events.
type lineEmitter struct {
	j     *Job
	buf   bytes.Buffer
	lines int
}

func (le *lineEmitter) Write(p []byte) (int, error) {
	le.buf.Write(p)
	for {
		line, err := le.buf.ReadString('\n')
		if err != nil {
			le.buf.WriteString(line) // incomplete line; keep for next write
			return len(p), nil
		}
		le.lines++
		if le.lines == maxOutputEvents {
			le.j.publish(Event{Event: "output", Line: "... output truncated in progress stream ..."})
		} else if le.lines < maxOutputEvents {
			le.j.publish(Event{Event: "output", Line: strings.TrimRight(line, "\n")})
		}
	}
}

// faultPlans resolves a chaos or recovery job's fault-plan name against
// that kind's default plans ("" = all of them).
func faultPlans(kind, name string) ([]harness.FaultPlan, error) {
	all := harness.DefaultChaosPlans()
	if kind == "recovery" {
		all = harness.DefaultRecoveryPlans()
	}
	if name == "" {
		return all, nil
	}
	for _, p := range all {
		if p.Name == name {
			return []harness.FaultPlan{p}, nil
		}
	}
	return nil, fmt.Errorf("unknown %s fault_plan %q", kind, name)
}

// checkSystems resolves a model-checker protocol selector.
func checkSystems(name string) ([]cstar.System, error) {
	if name == "" || name == "all" {
		return []cstar.System{cstar.Copying, cstar.LCMscc, cstar.LCMmcc}, nil
	}
	sys, err := cstar.ParseSystem(name)
	if err != nil {
		return nil, fmt.Errorf("protocol: %v, or all", err)
	}
	return []cstar.System{sys}, nil
}

// verdict is the deterministic result body of chaos and recovery jobs:
// the campaign configuration and its assertion outcome.  All failure
// text derives from simulation observables, so the bytes are as
// cacheable as a grid cell's.
type verdict struct {
	Schema   string   `json:"schema"`
	Kind     string   `json:"kind"`
	P        int      `json:"p"`
	Scale    int      `json:"scale"`
	Plans    []string `json:"plans"`
	Seeds    []uint64 `json:"seeds,omitempty"`
	OK       bool     `json:"ok"`
	Failures []string `json:"failures,omitempty"`
}

// checkOutcome is one model-checker configuration's result.
type checkOutcome struct {
	System    string `json:"system"`
	Script    string `json:"script"`
	Schedules int    `json:"schedules"`
	Pruned    int    `json:"pruned"`
	Exhausted bool   `json:"exhausted"`
	Violation string `json:"violation,omitempty"`
	Path      []int  `json:"path,omitempty"`
}

// checkReport is the deterministic result body of check jobs.
type checkReport struct {
	Schema   string         `json:"schema"`
	Nodes    int            `json:"nodes"`
	Blocks   int            `json:"blocks"`
	Outcomes []checkOutcome `json:"outcomes"`
	OK       bool           `json:"ok"`
}

func failureLines(err error) []string {
	if err == nil {
		return nil
	}
	return strings.Split(err.Error(), "\n")
}

// execute runs one dequeued job to a terminal state.  It is the queue's
// worker body: the job is already in StateRunning.
func (s *Server) execute(j *Job) {
	start := time.Now()
	body, ctype, err := s.run(j)
	wall := time.Since(start)
	s.stats.JobExecuted(j.Spec.Kind, wall.Seconds())
	if err != nil {
		j.fail(err.Error(), wall)
		return
	}
	s.cache.Put(j.Key, body, ctype, j.ID)
	j.finish(body, ctype, "miss", wall)
}

// run computes a job's result.  A panic on the way is that job's failure
// and leaves the worker and the process alive: a machine's RunErr contains
// what its nodes do, but a campaign also runs code before any machine
// exists, on the worker's own goroutine.
func (s *Server) run(j *Job) (body []byte, ctype string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	if s.beforeRun != nil {
		s.beforeRun(j)
	}
	sp := j.Spec

	var out bytes.Buffer
	suite := harness.New(io.MultiWriter(&out, &lineEmitter{j: j}))
	if suite.Cfg, err = sp.config(); err != nil {
		return nil, "", err
	}
	suite.Scale = sp.Scale
	suite.KVSkew = sp.KVSkew
	suite.KVReshard = sp.KVReshard

	suite.OnProgress = func(p harness.Progress) {
		j.publish(Event{
			Event: "cell", Cell: p.Cell, System: p.Result.System.String(),
			Done: p.Done, Total: p.Total, SimCycles: p.Result.Cycles,
		})
	}

	ctype = "application/json"
	switch sp.Kind {
	case "grid":
		body, err = s.runGrid(j, suite, sp)
	case "netsweep":
		suite.DefaultNetSweep()
		body, ctype = out.Bytes(), "text/plain; charset=utf-8"
	case "chaos", "recovery":
		plans, _ := faultPlans(sp.Kind, sp.FaultPlan)
		names := make([]string, len(plans))
		for i, p := range plans {
			names[i] = p.Name
		}
		var ferr error
		if sp.Kind == "chaos" {
			ferr = suite.RunChaos(plans)
		} else {
			ferr = suite.RunRecovery(plans, sp.Seeds)
		}
		body, err = json.MarshalIndent(verdict{
			Schema: "lcmd-" + sp.Kind + "/1", Kind: sp.Kind, P: sp.P, Scale: sp.Scale,
			Plans: names, Seeds: sp.Seeds, OK: ferr == nil, Failures: failureLines(ferr),
		}, "", "  ")
	case "check":
		body, err = runCheck(sp)
	default:
		err = fmt.Errorf("unknown kind %q", sp.Kind)
	}
	return body, ctype, err
}

// runGrid executes a grid job's cells, threads the per-record counters
// into the metrics registry, and renders the deterministic BENCH bytes —
// the same bytes `lcmbench -detjson` writes for this tuple.
func (s *Server) runGrid(j *Job, suite *harness.Suite, sp JobSpec) ([]byte, error) {
	cells, err := harness.ParseCells(sp.Cells)
	if err != nil {
		return nil, err
	}
	rows, err := suite.RunCells(cells)
	if err != nil {
		return nil, err
	}
	var failures []string
	var samples []RecordSample
	for _, r := range harness.Results(rows) {
		if r.Err != nil {
			failures = append(failures, fmt.Sprintf("%s/%s: %v", r.Label(), r.System, r.Err))
		}
		samples = append(samples, RecordSample{
			Job: j.ID, Workload: r.Workload, Sched: r.Sched,
			System: r.System.String(), SimCycles: r.Cycles, C: r.C, Host: r.Host,
		})
	}
	s.stats.AddRecords(samples)
	if len(failures) > 0 {
		return nil, fmt.Errorf("failed cells:\n%s", strings.Join(failures, "\n"))
	}
	return harness.MarshalDeterministic(suite.Cfg, suite.Scale, rows)
}

// runCheck explores the model-checker tuple and renders its report.
func runCheck(sp JobSpec) ([]byte, error) {
	systems, _ := checkSystems(sp.Protocol)
	base := check.Config{Nodes: sp.Nodes, Blocks: sp.Blocks, MaxSchedules: sp.MaxSchedules}
	if base.MaxSchedules < 0 {
		base.MaxSchedules = 0 // negative requests exhaustion
	}
	report := checkReport{Schema: "lcmd-check/1", Nodes: sp.Nodes, Blocks: sp.Blocks, OK: true}
	err := check.ExploreAll(base, systems, sp.Script, func(cfg check.Config, res check.Result) {
		oc := checkOutcome{
			System: cfg.System.String(), Script: cfg.Script.Name,
			Schedules: res.Schedules, Pruned: res.Pruned, Exhausted: res.Exhausted,
		}
		if res.Violation != nil {
			oc.Violation = res.Violation.Err.Error()
			oc.Path = res.Violation.Path
			report.OK = false
		}
		report.Outcomes = append(report.Outcomes, oc)
	})
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(report, "", "  ")
}
