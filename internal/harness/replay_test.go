package harness

import (
	"bytes"
	"encoding/json"
	"testing"

	"lcm/internal/cstar"
	"lcm/internal/workloads"
)

// Replay tests: running the same (workload, P, schedule seed) twice must
// produce byte-identical trajectory JSON — simulated cycles, Copying
// fault counts, and network counters included.  This is the end-to-end
// statement of the deterministic scheduler's contract, one level above
// the per-field assertions in internal/workloads: if any observable
// anywhere in a record drifts between runs, the marshalled bytes differ.
//
// Stencil-dynamic and Adaptive-dynamic are the adversarial picks: both
// use the rotating schedule, so block ownership migrates across phases
// and the Copying baseline invalidates mid-phase, which was the classic
// source of run-to-run wobble before internal/sched.

func replayRows(t *testing.T, cfg workloads.Config) []map[cstar.System]workloads.Result {
	t.Helper()
	runs := []func(sys cstar.System) workloads.Result{
		func(sys cstar.System) workloads.Result {
			return workloads.RunStencil(sys, workloads.StencilSpec{N: 64, Iters: 4, Sched: "dynamic"}, cfg)
		},
		func(sys cstar.System) workloads.Result {
			return workloads.RunAdaptive(sys, workloads.AdaptiveSpec{N: 16, MaxDepth: 3, Iters: 8,
				Sched: "dynamic", Electrodes: 3, SubdivThreshold: 4}, cfg)
		},
	}
	rows := make([]map[cstar.System]workloads.Result, 0, len(runs))
	for _, run := range runs {
		row := map[cstar.System]workloads.Result{}
		for _, sys := range []cstar.System{cstar.Copying, cstar.LCMscc, cstar.LCMmcc} {
			r := run(sys)
			if r.Err != nil {
				t.Fatalf("%s/%v (seed %d): run failed: %v", r.Workload, sys, cfg.SchedSeed, r.Err)
			}
			row[sys] = r
		}
		rows = append(rows, row)
	}
	return rows
}

// TestReplayByteIdenticalJSON runs Stencil-dynamic and Adaptive-dynamic
// at P=8 twice per schedule seed and asserts the deterministic JSON
// renderings are byte-identical.
func TestReplayByteIdenticalJSON(t *testing.T) {
	for _, seed := range []uint64{0, 1, 0xdeadbeef} {
		cfg := workloads.Config{P: 8, Verify: true, SchedSeed: seed}
		first, err := MarshalDeterministic(cfg, 16, replayRows(t, cfg))
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", seed, err)
		}
		second, err := MarshalDeterministic(cfg, 16, replayRows(t, cfg))
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", seed, err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("seed %d: replay JSON differs between two runs:\n--- first ---\n%s\n--- second ---\n%s",
				seed, first, second)
		}
	}
}

// TestRunAheadMetadataIsMaskedAndInformational: whether a cell's handlers
// ran ahead of the scheduler token, and what the scheduler did, is in the
// trajectory JSON for people to read — and nowhere in the deterministic
// bytes.
func TestRunAheadMetadataIsMaskedAndInformational(t *testing.T) {
	cfg := workloads.Config{P: 8, SchedSeed: 1}
	rows := replayRows(t, cfg)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, cfg, 16, rows); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var bf BenchFile
	if err := json.Unmarshal(buf.Bytes(), &bf); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	for _, r := range bf.Records {
		want := "on"
		if r.System == "copying" {
			want = "off: protocol without split handlers"
		}
		if r.RunAhead != want {
			t.Errorf("%s/%s: run_ahead = %q, want %q", r.Workload, r.System, r.RunAhead, want)
		}
		if r.SchedGrants == 0 || r.SchedHandoffs == 0 || (r.SchedApplies > 0) != (want == "on") {
			t.Errorf("%s/%s: grants %d, hand-offs %d, applies %d", r.Workload, r.System, r.SchedGrants, r.SchedHandoffs, r.SchedApplies)
		}
		if want == "on" && r.SchedHandoffs*4 > r.SchedGrants {
			t.Errorf("%s/%s: %d of %d grants switched coroutines; run-ahead should leave a small fraction",
				r.Workload, r.System, r.SchedHandoffs, r.SchedGrants)
		}
	}

	det, err := MarshalDeterministic(cfg, 16, rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"run_ahead", "sched_grants", "sched_handoffs", "sched_applies"} {
		if bytes.Contains(det, []byte(field)) {
			t.Errorf("deterministic bytes mention %q", field)
		}
	}
}
