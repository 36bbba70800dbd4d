package check

import (
	"testing"

	"lcm/internal/cstar"
	"lcm/internal/fault"
)

// killCfg is the canned crash plan the nightly lcmcheck -kill run uses:
// node 1 dies recoverably at every second protocol fault, twice.
func killCfg(sys cstar.System, s Script) Config {
	return Config{
		System: sys, Nodes: 2, Blocks: 2, Script: s,
		Faults: &fault.Plan{Seed: 0x6b111, KillNode: 1, KillAfter: 2, KillCount: 2, Recover: true},
	}
}

// TestExploreKillRestartClean: every protocol survives exploration with a
// recoverable kill injected into every run — all safety properties (single
// writer, directory/tag agreement, no lost updates, flush/commit pairing)
// must hold through checkpointed restarts on every interleaving.
func TestExploreKillRestartClean(t *testing.T) {
	for _, sys := range []cstar.System{cstar.Copying, cstar.LCMscc, cstar.LCMmcc} {
		for _, s := range Scripts(2, 2) {
			cfg := killCfg(sys, s)
			cfg.MaxSchedules = 1000
			res, err := Explore(cfg)
			if err != nil {
				t.Fatalf("%v/%s: %v", sys, s.Name, err)
			}
			if res.Violation != nil {
				t.Errorf("%v/%s: violation under kill/restart after %d schedules: %v\n%s",
					sys, s.Name, res.Schedules, res.Violation, res.Violation.Trace)
			}
			if res.Schedules < 2 {
				t.Errorf("%v/%s: only %d schedules explored", sys, s.Name, res.Schedules)
			}
		}
	}
}

// TestExploreKillDeterministic: kill/restart does not break the
// reproducibility the search depends on — the same configuration explores
// the identical tree every time.
func TestExploreKillDeterministic(t *testing.T) {
	cfg := killCfg(cstar.LCMmcc, Scripts(2, 2)[0])
	cfg.MaxSchedules = 300
	a, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Schedules != b.Schedules || a.Pruned != b.Pruned || a.Exhausted != b.Exhausted {
		t.Errorf("kill exploration not reproducible: %+v vs %+v", a, b)
	}
}

// TestUnrecoverableKillReported: without Recover the kill aborts the
// run and exploration reports it as a replayable violation instead of
// hanging or panicking the process.
func TestUnrecoverableKillReported(t *testing.T) {
	cfg := killCfg(cstar.LCMscc, Scripts(2, 2)[0])
	cfg.Faults.Recover = false
	cfg.MaxSchedules = 50
	res, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("unrecoverable kill produced no violation")
	}
}
