package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"lcm/internal/cstar"
	"lcm/internal/fault"
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
// bytes.  Every cell runs ahead, Copying ones included (their faults on the
// old copy and on their own part of the new one post); a run under a fault
// plan does not, and says why.
func TestRunAheadMetadataIsMaskedAndInformational(t *testing.T) {
	cfg := workloads.Config{P: 8, SchedSeed: 1}
	rows := replayRows(t, cfg)
	faulty := cfg
	faulty.Faults = &fault.Plan{Seed: 1, CorruptPerMil: 5}
	planned := map[cstar.System]workloads.Result{}
	for _, sys := range []cstar.System{cstar.Copying, cstar.LCMmcc} {
		r := workloads.RunStencil(sys, workloads.StencilSpec{N: 32, Iters: 2, Sched: "static"}, faulty)
		if r.Err != nil {
			t.Fatalf("%s under a fault plan: %v", sys, r.Err)
		}
		r.Workload = "Stencil-faults"
		planned[sys] = r
	}
	rows = append(rows, planned)
	// Unstructured on the paper's graph for 32 iterations.
	unstructured := map[cstar.System]workloads.Result{}
	for _, sys := range []cstar.System{cstar.Copying, cstar.LCMscc, cstar.LCMmcc} {
		spec := workloads.PaperUnstructured()
		spec.Iters = 32
		r := workloads.RunUnstructured(sys, spec, cfg)
		if r.Err != nil {
			t.Fatalf("Unstructured/%s: %v", sys, r.Err)
		}
		unstructured[sys] = r
	}
	rows = append(rows, unstructured)
	// The KV mixes as the -scale 4 -p 32 grid runs them.
	kvCfg := cfg
	kvCfg.P = 32
	for _, mix := range []string{"read", "write"} {
		kv := map[cstar.System]workloads.Result{}
		for _, sys := range []cstar.System{cstar.Copying, cstar.LCMscc, cstar.LCMmcc} {
			r := workloads.RunKV(sys, (&Suite{Scale: 4}).KVSpec(mix), kvCfg)
			if r.Err != nil {
				t.Fatalf("KV-%s/%s: %v", mix, sys, r.Err)
			}
			r.Workload = "KV-" + mix
			kv[sys] = r
		}
		rows = append(rows, kv)
	}
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
		if r.Workload == "Stencil-faults" {
			want = "off: fault plan"
		}
		if r.RunAhead != want {
			t.Errorf("%s/%s: run_ahead = %q, want %q", r.Workload, r.System, r.RunAhead, want)
		}
		if r.SchedGrants == 0 || r.SchedHandoffs == 0 || (r.SchedApplies > 0) != (want == "on") {
			t.Errorf("%s/%s: grants %d, hand-offs %d, applies %d", r.Workload, r.System, r.SchedGrants, r.SchedHandoffs, r.SchedApplies)
		}
		// Copying records included: their reads of the old copy post, and
		// so do their faults on the new copy, whose blocks each node owns
		// for the call (cstar.Call: Stencil's chunk of the mesh, Adaptive's
		// subtrees of its roots, Unstructured's vertex range).  Undeclared,
		// Unstructured's Copying run switched 0.40 of its grants here;
		// declared, 0.02, as its LCM runs do.  KV's calls declare only what
		// they read, so under Copying every write fault on the store or the
		// intents hands the token off: at P = 32 that is 0.12 (read mix) and
		// 0.14 (write mix) of the grants, at P = 8 0.31 and 0.35, which is
		// why its rows run at 32.
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

// TestSeedIsStoredDeterministic: BENCH_seed.json is stored in the bytes
// `lcmbench -table1 -scale 2 -p 32 -verify -detjson` prints, which is what
// CI compares a fresh run with.  A seed that carries host time, or a
// BenchRecord field that changes how its records encode, fails here.
func TestSeedIsStoredDeterministic(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "BENCH_seed.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf BenchFile
	if err := json.Unmarshal(want, &bf); err != nil {
		t.Fatal(err)
	}
	bf.maskHostTime()
	got, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if diff := firstDiff(string(got), string(want)); diff != "" {
		t.Errorf("BENCH_seed.json is not in its deterministic form: %s", diff)
	}
}
