package check

import (
	"errors"
	"strings"
	"testing"

	"lcm/internal/core"
	"lcm/internal/cstar"
	"lcm/internal/memsys"
	"lcm/internal/stache"
	"lcm/internal/tempest"
	"lcm/internal/trace"
)

// TestScriptsValid: every canned script at every supported shape must
// pass the oracle's race-discipline validation.
func TestScriptsValid(t *testing.T) {
	for _, shape := range []struct{ nodes, blocks int }{{2, 2}, {3, 2}, {2, 3}} {
		for _, s := range Scripts(shape.nodes, shape.blocks) {
			cfg := Config{System: cstar.Copying, Nodes: shape.nodes, Blocks: shape.blocks, Script: s}
			if _, err := buildOracle(cfg); err != nil {
				t.Errorf("%dx%d %s: %v", shape.nodes, shape.blocks, s.Name, err)
			}
		}
	}
}

// TestOracleRejectsRacyScript: a same-phase foreign read and a two-writer
// element must both be rejected.
func TestOracleRejectsRacyScript(t *testing.T) {
	twoWriters := Script{Name: "bad", Phases: [][][]Op{{
		{{Write: true, Block: 0, Slot: 0, Val: 1}},
		{{Write: true, Block: 0, Slot: 0, Val: 2}},
	}}}
	cfg := Config{System: cstar.Copying, Nodes: 2, Blocks: 2, Script: twoWriters}
	if _, err := buildOracle(cfg); err == nil {
		t.Error("two writers of one element accepted")
	}
	racyRead := Script{Name: "bad", Phases: [][][]Op{{
		{{Write: true, Block: 0, Slot: 0, Val: 1}},
		{{Block: 0, Slot: 0}},
	}}}
	cfg.Script = racyRead
	if _, err := buildOracle(cfg); err == nil {
		t.Error("same-phase foreign read accepted")
	}
}

// TestExploreClean: every protocol survives exhaustive (or capped)
// exploration of the canned scripts at 2 nodes x 2 blocks with zero
// violations.
func TestExploreClean(t *testing.T) {
	for _, sys := range []cstar.System{cstar.Copying, cstar.LCMscc, cstar.LCMmcc} {
		for _, s := range Scripts(2, 2) {
			cfg := Config{System: sys, Nodes: 2, Blocks: 2, Script: s, MaxSchedules: 2000}
			res, err := Explore(cfg)
			if err != nil {
				t.Fatalf("%v/%s: %v", sys, s.Name, err)
			}
			if res.Violation != nil {
				t.Errorf("%v/%s: violation after %d schedules: %v\n%s",
					sys, s.Name, res.Schedules, res.Violation, res.Violation.Trace)
			}
			if res.Schedules < 2 {
				t.Errorf("%v/%s: only %d schedules explored; branch enumeration is broken", sys, s.Name, res.Schedules)
			}
			t.Logf("%v/%s: %d schedules, %d pruned, exhausted=%v", sys, s.Name, res.Schedules, res.Pruned, res.Exhausted)
		}
	}
}

// TestExploreDeterministic: the same configuration explores the same
// number of schedules every time (the tree itself is reproducible).
func TestExploreDeterministic(t *testing.T) {
	cfg := Config{System: cstar.LCMmcc, Nodes: 2, Blocks: 2, Script: Scripts(2, 2)[2], MaxSchedules: 500}
	a, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Schedules != b.Schedules || a.Pruned != b.Pruned || a.Exhausted != b.Exhausted {
		t.Errorf("exploration not reproducible: %+v vs %+v", a, b)
	}
}

// TestSleepSetSound: with pruning disabled the search explores at least
// as many schedules and still finds no violation, so the reduction only
// removes redundant interleavings.
func TestSleepSetSound(t *testing.T) {
	base := Config{System: cstar.Copying, Nodes: 2, Blocks: 2, Script: Scripts(2, 2)[2], MaxSchedules: 2000}
	with, err := Explore(base)
	if err != nil {
		t.Fatal(err)
	}
	base.NoSleep = true
	without, err := Explore(base)
	if err != nil {
		t.Fatal(err)
	}
	if with.Violation != nil || without.Violation != nil {
		t.Fatalf("clean config reported violations: %v / %v", with.Violation, without.Violation)
	}
	if with.Exhausted && without.Exhausted && without.Schedules < with.Schedules {
		t.Errorf("pruned search explored more schedules (%d) than the full search (%d)",
			with.Schedules, without.Schedules)
	}
}

// brokenStache wraps the real Stache protocol but grants a second
// read-write copy of every write-faulted block to a peer node: a
// deliberate single-writer violation the checker must catch.
type brokenStache struct {
	*stache.Protocol
	m *tempest.Machine
}

func (p *brokenStache) Attach(m *tempest.Machine) {
	p.m = m
	p.Protocol.Attach(m)
}

func (p *brokenStache) WriteFault(n *tempest.Node, b memsys.BlockID) {
	p.Protocol.WriteFault(n, b)
	peer := (n.ID + 1) % p.m.P
	p.m.Nodes[peer].Install(b, n.Data(b), tempest.TagReadWrite)
}

// TestBrokenProtocolCaught: the checker must find the planted violation,
// report a replayable path, and the replay must reproduce it.
func TestBrokenProtocolCaught(t *testing.T) {
	cfg := Config{
		System: cstar.Copying, Nodes: 2, Blocks: 2,
		Script:       Scripts(2, 2)[0],
		MaxSchedules: 2000,
		NewProtocol: func() tempest.Protocol {
			return &brokenStache{Protocol: stache.New()}
		},
	}
	res, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatalf("planted single-writer violation not found in %d schedules", res.Schedules)
	}
	if !strings.Contains(res.Violation.Err.Error(), "single-writer") {
		t.Errorf("unexpected violation kind: %v", res.Violation.Err)
	}
	if res.Violation.Trace == "" {
		t.Error("violation carries no event trace")
	}
	vio, _, err := Replay(cfg, res.Violation.Path)
	if err != nil {
		t.Fatal(err)
	}
	if vio == nil {
		t.Fatalf("replaying path %v did not reproduce the violation", res.Violation.Path)
	}
	if vio.Err.Error() != res.Violation.Err.Error() {
		t.Errorf("replay found a different violation: %v vs %v", vio.Err, res.Violation.Err)
	}
}

// TestReplayCleanPath: the canonical path of a correct protocol replays
// clean.
func TestReplayCleanPath(t *testing.T) {
	cfg := Config{System: cstar.LCMscc, Nodes: 2, Blocks: 2, Script: Scripts(2, 2)[1]}
	vio, _, err := Replay(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vio != nil {
		t.Errorf("canonical path reported violation: %v\n%s", vio, vio.Trace)
	}
}

func TestParsePath(t *testing.T) {
	p, err := ParsePath(" 0, 2,1 ")
	if err != nil || len(p) != 3 || p[0] != 0 || p[1] != 2 || p[2] != 1 {
		t.Errorf("ParsePath = %v, %v", p, err)
	}
	if p, err := ParsePath(""); err != nil || p != nil {
		t.Errorf("empty path = %v, %v", p, err)
	}
	if _, err := ParsePath("1,x"); err == nil {
		t.Error("bad element accepted")
	}
	if _, err := ParsePath("-1"); err == nil {
		t.Error("negative element accepted")
	}
}

// TestViolationError: the error string carries the step, path, and cause.
func TestViolationError(t *testing.T) {
	v := &Violation{Err: errors.New("boom"), Step: 7, Path: []int{1, 0, 2}}
	msg := v.Error()
	for _, want := range []string{"step 7", "[1 0 2]", "boom"} {
		if !strings.Contains(msg, want) {
			t.Errorf("Error() = %q, missing %q", msg, want)
		}
	}
}

// TestFinalChecksShortCircuits: a run error or a node read error is
// reported before any machine-state audit runs (nil machine proves it).
func TestFinalChecksShortCircuits(t *testing.T) {
	v := finalChecks(nil, nil, nil, nil, errors.New("kaput"), nil)
	if v == nil || !strings.Contains(v.Err.Error(), "run failed") {
		t.Fatalf("run error not reported: %v", v)
	}
	v = finalChecks(nil, nil, nil, nil, nil, []error{nil, errors.New("read mismatch")})
	if v == nil || !strings.Contains(v.Err.Error(), "read mismatch") {
		t.Fatalf("read error not reported: %v", v)
	}
}

// TestCheckFlushCommit: balanced traces pass, orphan commits, mismatched
// element counts and a trace that wrapped are flagged.
func TestCheckFlushCommit(t *testing.T) {
	tb := trace.New(64)
	tb.Record(0, 10, trace.Flush, 3, 8)
	tb.Record(1, 20, trace.Commit, 3, 8)
	if err := checkFlushCommit(tb); err != nil {
		t.Fatalf("balanced trace rejected: %v", err)
	}
	tb.Reset()
	tb.Record(1, 20, trace.Commit, 5, 4)
	if err := checkFlushCommit(tb); err == nil || !strings.Contains(err.Error(), "flushed none") {
		t.Fatalf("orphan commit not flagged: %v", err)
	}
	tb.Reset()
	tb.Record(0, 10, trace.Flush, 3, 8)
	tb.Record(1, 20, trace.Commit, 3, 4)
	if err := checkFlushCommit(tb); err == nil || !strings.Contains(err.Error(), "committed 4") {
		t.Fatalf("count mismatch not flagged: %v", err)
	}
	// The flush fell off the front of the ring: its commit must not be
	// reported as an orphan, nor the trace as balanced.
	tb = trace.New(1)
	tb.Record(0, 10, trace.Flush, 3, 8)
	tb.Record(1, 20, trace.Commit, 3, 8)
	if err := checkFlushCommit(tb); err == nil || !strings.Contains(err.Error(), "wrapped") {
		t.Fatalf("wrapped trace not flagged: %v", err)
	}
}

// lossyLCM wraps the real LCM protocol but replaces reconciliation with
// bare barriers: private modified copies are never flushed or committed,
// so the writes never reach home — a deliberate lost update the
// end-of-run audit must catch.  (Stache cannot lose updates this way:
// its read-write stores write through to the home image at storeAt.)
type lossyLCM struct {
	*core.LCM
}

func (p *lossyLCM) ReconcileCopies(n *tempest.Node) {
	n.Barrier()
	n.Barrier()
}

// TestLostUpdateCaught: a write-only script (no reads to trip first)
// whose updates vanish at reconciliation must fail the home-image audit.
func TestLostUpdateCaught(t *testing.T) {
	cfg := Config{
		System: cstar.LCMscc, Nodes: 2, Blocks: 2,
		Script: Script{Name: "writeonly", Phases: [][][]Op{{
			{{Write: true, Block: 1, Slot: 0, Val: 1}},
			{{Write: true, Block: 0, Slot: 0, Val: 2}},
		}}},
		MaxSchedules: 100,
		NewProtocol: func() tempest.Protocol {
			return &lossyLCM{LCM: core.New(core.SCC)}
		},
	}
	res, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatalf("planted lost update not found in %d schedules", res.Schedules)
	}
	if !strings.Contains(res.Violation.Err.Error(), "lost update") {
		t.Errorf("unexpected violation kind: %v", res.Violation.Err)
	}
}
