// The fault matrix: every workload under every memory system runs under
// seeded fault plans — corruption, timeouts, spikes and stalls (the chaos
// campaign); node kills and unreliable delivery with recovery on (the
// recovery matrix) — and survival must be provable: the run completes with
// the fault-free oracle's answer and access stream, replays bit-identically
// under the same (seed, faultplan), and its recovery counters account
// exactly for every injected fault.  A separate scenario injects an
// unrecoverable node failure and requires a structured error with a
// diagnostic dump inside a bounded wall-clock time.
package harness

import (
	"errors"
	"fmt"
	"time"

	"lcm/internal/cstar"
	"lcm/internal/fault"
	"lcm/internal/tempest"
	"lcm/internal/workloads"
)

// FaultPlan is one named column of the fault matrix.  Kill plans set Recover
// so the machine restarts instead of aborting.
type FaultPlan struct {
	Name string
	fault.Plan
}

// DefaultChaosPlans returns the standard chaos campaign: a light plan with
// rare faults of every kind that recovery hides without a restart, and a
// heavy plan aggressive enough that essentially every run retries many
// transfers and requests.
func DefaultChaosPlans() []FaultPlan {
	return []FaultPlan{
		{Name: "light", Plan: fault.Plan{
			Seed:            0x1c3a05_0001,
			CorruptPerMil:   5,
			TransientPerMil: 5,
			SpikePerMil:     3, SpikeCycles: 2000,
			StallPerMil: 2, StallCycles: 5000,
		}},
		{Name: "heavy", Plan: fault.Plan{
			Seed:            0x1c3a05_0002,
			CorruptPerMil:   60,
			TransientPerMil: 60,
			SpikePerMil:     30, SpikeCycles: 4000,
			StallPerMil: 15, StallCycles: 10000,
		}},
	}
}

// DefaultRecoveryPlans returns the standard recovery matrix: crash at the
// epoch boundary, crash mid-epoch, repeated crashes past the restart budget
// (forcing degraded-mode re-homing), sustained 1% message drop, and a
// duplicate/reorder storm.
func DefaultRecoveryPlans() []FaultPlan {
	return []FaultPlan{
		{Name: "kill-at-barrier", Plan: fault.Plan{
			Seed: 0x1c3a05_0101, KillNode: 1, KillAtBarrier: 2, Recover: true,
		}},
		{Name: "kill-mid-epoch", Plan: fault.Plan{
			Seed: 0x1c3a05_0102, KillNode: 1, KillAfter: 5, Recover: true,
		}},
		{Name: "kill-rehome", Plan: fault.Plan{
			Seed: 0x1c3a05_0103, KillNode: 1, KillAfter: 3, KillCount: 4,
			Recover: true, RestartBudget: 2,
		}},
		{Name: "drop-1pct", Plan: fault.Plan{
			Seed: 0x1c3a05_0104, DropPerMil: 10, Recover: true,
		}},
		{Name: "dup-storm", Plan: fault.Plan{
			Seed: 0x1c3a05_0105, DupPerMil: 120, ReorderPerMil: 40, Recover: true,
		}},
	}
}

// faultCells are the matrix's workloads: the paper's four kernels, static
// where there is a choice.
var faultCells = []CellSpec{{"Stencil", "static"}, {"Adaptive", "static"}, {"Threshold", ""}, {"Unstructured", ""}}

// at is the point that runs under the plan with its seed shifted by the
// matrix seed.
func (p FaultPlan) at(seed uint64) point {
	return point{p.Name, func(cfg workloads.Config) workloads.Config {
		plan := p.Plan
		plan.Seed += seed * 0x9e3779b97f4a7c15
		cfg.Faults = &plan
		return cfg
	}}
}

// RunChaos runs the chaos campaign — every workload x memory system x plan,
// each plan under its own seed — plus the unrecoverable-failure scenario,
// printing one line per combination and returning the joined failures (nil
// when every assertion held).
func (s *Suite) RunChaos(plans []FaultPlan) error {
	fmt.Fprintf(s.Out, "chaos campaign (P=%d, scale 1/%d, %d plans)...\n", s.Cfg.P, s.Scale, len(plans))
	err := s.runFaults(plans, []uint64{0}, func(p FaultPlan, _ uint64, res workloads.Result) string {
		return fmt.Sprintf("%-6s injected[%s]", p.Name, res.Faults)
	})
	kill := s.chaosKill()
	if kill == nil {
		fmt.Fprintf(s.Out, "  kill scenario: structured failure with diagnostics within bound: ok\n")
	}
	return errors.Join(err, kill)
}

// RunRecovery runs the recovery matrix — every workload x memory system x
// plan x seed at the suite's P — printing one line per cell and returning
// the joined failures.
func (s *Suite) RunRecovery(plans []FaultPlan, seeds []uint64) error {
	if len(seeds) == 0 {
		seeds = []uint64{0}
	}
	fmt.Fprintf(s.Out, "recovery matrix (P=%d, scale 1/%d, %d plans, %d seeds)...\n",
		s.Cfg.P, s.Scale, len(plans), len(seeds))
	return s.runFaults(plans, seeds, func(p FaultPlan, seed uint64, res workloads.Result) string {
		return fmt.Sprintf("%-15s seed=%d kills=%d restarts=%d rehomed=%d retrans=%d dups=%d",
			p.Name, seed, res.Faults.Kills, res.C.Restarts,
			res.C.RehomedBlocks, res.C.Net.Retransmits, res.C.Net.DupDelivered)
	})
}

// runFaults is the matrix loop.  With the sequential-reference check on,
// each (workload, system) runs fault-free once, then under every plan at
// every seed; each faulted run is held to checkFaulted against that
// baseline, and the first seed of every plan must also replay
// bit-identically.  A plan whose kill target does not exist at the suite's
// P is skipped.  describe renders the campaign's own part of a result line.
func (s *Suite) runFaults(plans []FaultPlan, seeds []uint64, describe func(FaultPlan, uint64, workloads.Result) string) error {
	v := *s // the matrix runs on a copy of the suite with the check on
	v.Cfg.Verify = true
	skip := func(p FaultPlan) bool { return p.KillNode >= v.Cfg.P }
	points := []point{identity}
	for _, p := range plans {
		for _, seed := range seeds {
			if !skip(p) {
				points = append(points, p.at(seed))
			}
		}
	}
	var failures []error
	v.walk(campaign{cells: faultCells, systems: systems, points: points,
		each: func(cell CellSpec, runs []workloads.Result) {
			base, sys := runs[0], runs[0].System
			if base.Err != nil {
				failures = append(failures, fmt.Errorf("%s/%v: fault-free baseline failed: %w", cell.Workload, sys, base.Err))
				return
			}
			next := 1
			for _, p := range plans {
				if skip(p) {
					fmt.Fprintf(s.Out, "  %-12s %-8v %-15s skip (kill target beyond P=%d)\n", cell.Workload, sys, p.Name, v.Cfg.P)
					continue
				}
				for i, seed := range seeds {
					res := runs[next]
					next++
					err := checkFaulted(base, res, p, v.Cfg.P)
					if err == nil && i == 0 {
						// Replay identity: the same (workload, P, seed,
						// faultplan) must reproduce every observable bit
						// for bit.
						err = checkReplay(res, v.Run(cell, sys, p.at(seed).apply(v.Cfg)))
					}
					status := "ok"
					if err != nil {
						status = "FAIL: " + err.Error()
						failures = append(failures, fmt.Errorf("%s/%v/%s/seed%d: %w", cell.Workload, sys, p.Name, seed, err))
					}
					fmt.Fprintf(s.Out, "  %-12s %-8v %s %s\n", cell.Workload, sys, describe(p, seed, res), status)
				}
			}
		}})
	return errors.Join(failures...)
}

// checkFaulted asserts one faulted run against its fault-free baseline:
// the run completed with the oracle answer, something was injected, the
// accounting table holds, and degraded mode engaged exactly when the
// restart budget was spent.
func checkFaulted(base, res workloads.Result, p FaultPlan, P int) error {
	if res.Err != nil {
		return fmt.Errorf("run failed under fault plan: %w", res.Err)
	}
	// (A plan with delivery faults only may inject nothing at P=1: a
	// one-node machine may send no message.)
	deliveryOnly := p.Lossy() && p.CorruptPerMil <= 0 && p.TransientPerMil <= 0 &&
		p.SpikePerMil <= 0 && p.StallPerMil <= 0 && p.KillAfter <= 0 && p.KillAtBarrier <= 0
	if res.Faults.Total() == 0 && (P > 1 || !deliveryOnly) {
		return fmt.Errorf("plan injected nothing; matrix cell proves nothing")
	}
	for _, c := range []struct {
		name      string
		want, got int64
	}{
		// Recovery must be invisible to the protocol's data movement: the
		// access stream matches the fault-free run event for event (answer
		// identity itself is checked in-run by Verify).
		{"Hits", base.C.Hits, res.C.Hits},
		{"Misses", base.C.Misses, res.C.Misses},
		{"Flushes", base.C.Flushes, res.C.Flushes},
		{"WordsFlushed", base.C.WordsFlushed, res.C.WordsFlushed},
		{"Marks", base.C.Marks, res.C.Marks},
		{"Barriers", base.C.Barriers, res.C.Barriers},
		// Recovery counters must match the injector's own record of what
		// it injected, one for one: a re-fetch per corruption, a re-send
		// per timeout, a restart per kill, a retransmission per dropped
		// message, a discard per duplicate, a hold per reorder.
		{"CorruptedTransfers==Corruptions", res.Faults.Corruptions, res.C.CorruptedTransfers},
		{"TransientTimeouts==Timeouts", res.Faults.Timeouts, res.C.TransientTimeouts},
		{"OccupancySpikes==Spikes", res.Faults.Spikes, res.C.OccupancySpikes},
		{"Stalls==Stalls", res.Faults.Stalls, res.C.Stalls},
		{"Restarts==Kills", res.Faults.Kills, res.C.Restarts},
		{"Retransmits==Dropped", res.Faults.Dropped, res.C.Net.Retransmits},
		{"DupDelivered==Duplicated", res.Faults.Duplicated, res.C.Net.DupDelivered},
		{"ReorderHeld==Reordered", res.Faults.Reordered, res.C.Net.ReorderHeld},
	} {
		if c.want != c.got {
			return fmt.Errorf("%s: want %d, got %d", c.name, c.want, c.got)
		}
	}
	// With checkpoint/restart on, every node checkpoints at every barrier
	// epoch.
	if p.Recover && res.C.Checkpoints != res.C.Barriers {
		return fmt.Errorf("Checkpoints==Barriers: want %d, got %d", res.C.Barriers, res.C.Checkpoints)
	}
	if res.C.FaultRetries < res.Faults.Corruptions+res.Faults.Timeouts {
		return fmt.Errorf("FaultRetries %d < injected corruptions+timeouts %d",
			res.C.FaultRetries, res.Faults.Corruptions+res.Faults.Timeouts)
	}
	// Degraded mode: killed past the restart budget, the node re-homes
	// exactly once; within budget, never.
	budget := int64(p.RestartBudget)
	if budget <= 0 {
		budget = 4 // fault.Plan default
	}
	wantRehomings := int64(0)
	if res.Faults.Kills > budget && P > 1 {
		wantRehomings = 1
	}
	if res.C.Rehomings != wantRehomings {
		return fmt.Errorf("Rehomings: want %d (kills=%d budget=%d), got %d",
			wantRehomings, res.Faults.Kills, budget, res.C.Rehomings)
	}
	if wantRehomings == 1 && res.C.RehomedBlocks == 0 {
		return fmt.Errorf("re-homed with zero blocks migrated")
	}
	return nil
}

// checkReplay asserts two runs of the same (workload, P, seed,
// faultplan) cell are bit-identical in every observable.
func checkReplay(a, b workloads.Result) error {
	if b.Err != nil {
		return fmt.Errorf("replay failed: %w", b.Err)
	}
	for _, c := range []struct {
		what string
		a, b any
	}{
		{"cycles", a.Cycles, b.Cycles}, {"counters", a.C, b.C}, {"shared counters", a.S, b.S},
		{"fault tally", a.Faults, b.Faults},
	} {
		if c.a != c.b {
			return fmt.Errorf("replay diverged: %s %+v vs %+v", c.what, c.a, c.b)
		}
	}
	return nil
}

// chaosKill injects an unrecoverable node failure and requires the run to
// terminate with a structured per-node error and a diagnostic dump within
// a bounded wall-clock time.
func (s *Suite) chaosKill() error {
	cfg := s.Cfg
	cfg.Verify = false
	plan := fault.Plan{Seed: 0x1c3a05_0003, KillNode: 1, KillAfter: 3}
	cfg.Faults = &plan
	cfg.Watchdog = 2 * time.Second
	const bound = 30 * time.Second
	start := time.Now()
	res := s.Run(CellSpec{"Stencil", "static"}, cstar.LCMscc, cfg)
	elapsed := time.Since(start)
	if elapsed > bound {
		return fmt.Errorf("chaos kill: run took %v, bound %v", elapsed, bound)
	}
	if res.Err == nil {
		return fmt.Errorf("chaos kill: injected node failure but run succeeded")
	}
	if !errors.Is(res.Err, fault.ErrKilled) {
		return fmt.Errorf("chaos kill: error does not match fault.ErrKilled: %v", res.Err)
	}
	var re *tempest.RunError
	if !errors.As(res.Err, &re) {
		return fmt.Errorf("chaos kill: error is not a *tempest.RunError: %v", res.Err)
	}
	first := re.First()
	if first == nil || first.Node != plan.KillNode {
		return fmt.Errorf("chaos kill: primary failure not on node %d: %v", plan.KillNode, res.Err)
	}
	if re.Diagnostics == "" {
		return fmt.Errorf("chaos kill: no diagnostic dump attached")
	}
	return nil
}
