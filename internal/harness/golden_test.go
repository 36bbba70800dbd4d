package harness

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lcm/internal/cstar"
	"lcm/internal/fault"
	"lcm/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this tree's output")

// TestCampaignGoldens replays every campaign that is not the plain grid
// against the bytes cmd/lcmbench printed for it before the campaigns shared
// one loop: testdata/<name>.golden is the stdout of `lcmbench <args>` minus
// its wall-time line.  head and verdict are the lines of that stdout the
// command adds itself: before a grid, and after a passing fault campaign.
func TestCampaignGoldens(t *testing.T) {
	for _, c := range []struct {
		name     string // lcmbench args that produced the golden
		p, scale int
		head     string
		run      func(s *Suite) error
		verdict  string
	}{
		{"sweeps", 8, 32, "running benchmarks (P=8, scale 1/32)...\n", // -sweeps -table1 -scale 32 -p 8
			func(s *Suite) error { s.Table1(runGrid(t, s)); s.RunSweeps(); return nil }, ""},
		{"netsweep", 32, 32, "", // -netsweep -scale 32
			func(s *Suite) error { s.DefaultNetSweep(); return nil }, ""},
		{"ablate", 8, 16, "", // -ablate -scale 16 -p 8
			func(s *Suite) error { s.RunAblations(); return nil }, ""},
		{"chaos", 8, 16, "", // -chaos -scale 16 -p 8
			func(s *Suite) error { return s.RunChaos(DefaultChaosPlans()) },
			"chaos campaign passed: all recoveries bit-identical, counters match injected plans\n"},
		{"recovery", 4, 16, "", // -recovery -scale 16 -p 4
			func(s *Suite) error { return s.RunRecovery(DefaultRecoveryPlans(), []uint64{1, 2}) },
			"recovery matrix passed: all runs survived, answers and replays bit-identical, recovery counters exact\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			s := New(&buf)
			s.Cfg = workloads.Config{P: c.p}
			s.Scale = c.scale
			if err := c.run(s); err != nil {
				t.Fatalf("campaign failed:\n%v", err)
			}
			checkGolden(t, c.name, c.head+buf.String()+c.verdict)
		})
	}
}

// checkGolden holds got to the bytes of testdata/<name>.golden, or, under
// -update, writes them.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s (rerun with -update after a deliberate change):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestFaultChecksCatchEachRow doctors one field of a passing faulted run
// per assertion of the fault matrix and requires checkFaulted to name that
// assertion: every row of the merged table is live.
func TestFaultChecksCatchEachRow(t *testing.T) {
	s := New(&bytes.Buffer{})
	s.Cfg = workloads.Config{P: 8, Verify: true}
	s.Scale = 16
	cell, sys := CellSpec{"Stencil", "static"}, cstar.LCMscc
	plan := DefaultRecoveryPlans()[2] // kill-rehome: kills, restarts and a re-homing
	base := s.Run(cell, sys, s.Cfg)
	res := s.Run(cell, sys, plan.at(1).apply(s.Cfg))
	if err := checkFaulted(base, res, plan, s.Cfg.P); err != nil {
		t.Fatalf("undoctored run fails: %v", err)
	}

	doctor := map[string]func(r *workloads.Result){
		"Hits":                            func(r *workloads.Result) { r.C.Hits++ },
		"Misses":                          func(r *workloads.Result) { r.C.Misses++ },
		"Flushes":                         func(r *workloads.Result) { r.C.Flushes++ },
		"WordsFlushed":                    func(r *workloads.Result) { r.C.WordsFlushed++ },
		"Marks":                           func(r *workloads.Result) { r.C.Marks++ },
		"Barriers":                        func(r *workloads.Result) { r.C.Barriers++ },
		"CorruptedTransfers==Corruptions": func(r *workloads.Result) { r.C.CorruptedTransfers++ },
		"TransientTimeouts==Timeouts":     func(r *workloads.Result) { r.C.TransientTimeouts++ },
		"OccupancySpikes==Spikes":         func(r *workloads.Result) { r.C.OccupancySpikes++ },
		"Stalls==Stalls":                  func(r *workloads.Result) { r.C.Stalls++ },
		"Restarts==Kills":                 func(r *workloads.Result) { r.C.Restarts-- },
		"Retransmits==Dropped":            func(r *workloads.Result) { r.C.Net.Retransmits++ },
		"DupDelivered==Duplicated":        func(r *workloads.Result) { r.C.Net.DupDelivered++ },
		"ReorderHeld==Reordered":          func(r *workloads.Result) { r.C.Net.ReorderHeld++ },
		"Checkpoints==Barriers":           func(r *workloads.Result) { r.C.Checkpoints-- },
	}
	// The assertions outside the equality table.
	doctor["run failed under fault plan"] = func(r *workloads.Result) { r.Err = errors.New("node died") }
	doctor["plan injected nothing"] = func(r *workloads.Result) { r.Faults = fault.Tally{} }
	doctor["FaultRetries"] = func(r *workloads.Result) { r.C.FaultRetries = -1 }
	doctor["Rehomings"] = func(r *workloads.Result) { r.C.Rehomings++ }
	doctor["re-homed with zero blocks"] = func(r *workloads.Result) { r.C.RehomedBlocks = 0 }

	for name, mutate := range doctor {
		bad := res
		mutate(&bad)
		err := checkFaulted(base, bad, plan, s.Cfg.P)
		if err == nil || !strings.HasPrefix(err.Error(), name) {
			t.Errorf("doctored for %q: checkFaulted = %v, want an error naming it", name, err)
		}
	}
	// Checkpoints are only owed when the plan runs with recovery on.
	bad, chaos := res, plan
	bad.C.Checkpoints = 0
	chaos.Recover = false
	if err := checkFaulted(base, bad, chaos, s.Cfg.P); err != nil {
		t.Errorf("a plan without Recover was held to Checkpoints==Barriers: %v", err)
	}
}
