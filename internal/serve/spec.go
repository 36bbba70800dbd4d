// Package serve runs the simulator as a long-running service: harness
// campaigns (grid cells, the interconnect sweep, the chaos and recovery
// matrices, the protocol model checker) become submitted jobs behind a
// bounded-concurrency queue with streaming NDJSON progress, a
// content-addressed result cache keyed on the full deterministic run
// tuple, and a Prometheus-text /metrics surface exporting the per-node
// simulation counters that previously only landed in JSON/CSV files.
//
// Everything the simulator computes is a pure function of the submitted
// tuple (the deterministic scheduler makes even simulated cycles
// replayable), so a repeated submission is served from cache
// bit-identically to the first run — and to a process-mode `lcmbench
// -detjson` run of the same tuple.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"lcm/internal/harness"
	"lcm/internal/workloads"
)

// JobSpec is the wire shape of one submitted job: the deterministic run
// tuple plus host-side execution knobs.  The zero value of every field
// means "the default", so a spec with explicit defaults and one that
// omits them normalize to the same tuple and hit the same cache entry.
// A field set for a kind that never reads it is refused (Normalize).
type JobSpec struct {
	// Kind selects the campaign: "grid" (Table-1 cells), "netsweep"
	// (interconnect sensitivity sweep), "chaos" (fault-injection
	// campaign), "recovery" (crash-recovery matrix) or "check" (protocol
	// model checker).
	Kind string `json:"kind"`

	// Cells restricts a grid job to the named cells ("Stencil-static",
	// "Threshold", "KV-read", ...); empty means the full Table-1 grid.
	Cells []string `json:"cells,omitempty"`

	// P is the simulated machine size (default 32, the paper's).
	P int `json:"p,omitempty"`
	// Scale divides the problem sizes (default 1 = paper scale).
	Scale int `json:"scale,omitempty"`
	// BlockSize is the coherence block size in bytes (0 = 32).
	BlockSize int `json:"blocksize,omitempty"`
	// Verify checks results against the sequential references.
	Verify bool `json:"verify,omitempty"`

	// Net selects the interconnect model: "" or "uniform" for the flat
	// historical charges, "fattree" for the CM-5-style tree.  LinkBW and
	// NILat are the fat tree's cycles-per-byte and per-message NI
	// occupancy overrides (0 = model defaults).
	Net    string `json:"net,omitempty"`
	LinkBW int64  `json:"linkbw,omitempty"`
	NILat  int64  `json:"nilat,omitempty"`

	// Scheduler is "" or "det", the deterministic virtual-time scheduler:
	// the only one there is.  The field stays because the normalized
	// tuple's canonical bytes, and so every cache key, carry it.
	Scheduler string `json:"scheduler,omitempty"`
	// SchedSeed selects the deterministic schedule.
	SchedSeed uint64 `json:"sched_seed,omitempty"`

	// KVSkew and KVReshard tune the serving-traffic (KV) cells: the Zipf
	// skew exponent (0 = workload default of 0.99) and the reshard
	// cadence in phases (0 = default, negative = resharding off).  Both
	// change simulation observables and so are part of the deterministic
	// tuple; zero values are omitted from JSON, keeping pre-KV cache keys
	// stable.
	KVSkew    float64 `json:"kv_skew,omitempty"`
	KVReshard int     `json:"kv_reshard,omitempty"`

	// FaultPlan names the chaos plan ("light", "heavy") or recovery plan
	// ("kill-at-barrier", "drop-1pct", ...); empty means every default
	// plan.  Part of the deterministic tuple.
	FaultPlan string `json:"fault_plan,omitempty"`
	// Seeds are the recovery-matrix seeds (default [1 2]).
	Seeds []uint64 `json:"seeds,omitempty"`

	// The model-checker tuple ("check" jobs).
	Protocol string `json:"protocol,omitempty"` // copying|scc|mcc|all
	Nodes    int    `json:"nodes,omitempty"`    // 2-3 (default 2)
	Blocks   int    `json:"blocks,omitempty"`   // 2-4 (default 2)
	Script   string `json:"script,omitempty"`   // canned script name ("" = all)
	// MaxSchedules bounds the interleavings explored per configuration
	// (0 = the service default of 5000; negative = exhaust the tree).
	MaxSchedules int `json:"max_schedules,omitempty"`
}

// specSchema versions the cache key; bump when normalization or result
// rendering changes meaning so stale entries cannot be served.
const specSchema = "lcmd/1"

// validKinds lists the campaigns the server runs.
var validKinds = map[string]bool{
	"grid": true, "netsweep": true, "chaos": true, "recovery": true, "check": true,
}

// Normalize applies defaults and validates the spec in place, so that
// every field of the result is the value the run will actually use (and
// the cache key is canonical).  It returns an error suitable for a 400
// response.
func (sp *JobSpec) Normalize() error {
	if !validKinds[sp.Kind] {
		return fmt.Errorf("unknown kind %q (want grid, netsweep, chaos, recovery or check)", sp.Kind)
	}
	// A field the kind never reads would still shape the cache key, so two
	// specs that run the same thing could get two keys: refuse it.
	for _, f := range []struct {
		name  string
		set   bool
		kinds []string // the kinds that read the field
	}{
		{"cells", len(sp.Cells) > 0, []string{"grid"}},
		{"kv_skew", sp.KVSkew != 0, []string{"grid", "netsweep"}},
		{"kv_reshard", sp.KVReshard != 0, []string{"grid", "netsweep"}},
		{"fault_plan", sp.FaultPlan != "", []string{"chaos", "recovery"}},
		{"seeds", len(sp.Seeds) > 0, []string{"recovery"}},
		{"protocol", sp.Protocol != "", []string{"check"}},
		{"nodes", sp.Nodes != 0, []string{"check"}},
		{"blocks", sp.Blocks != 0, []string{"check"}},
		{"script", sp.Script != "", []string{"check"}},
		{"max_schedules", sp.MaxSchedules != 0, []string{"check"}},
	} {
		if f.set && !slices.Contains(f.kinds, sp.Kind) {
			return fmt.Errorf("%s applies only to %s jobs, not to a %s job", f.name, strings.Join(f.kinds, " and "), sp.Kind)
		}
	}
	if sp.P == 0 {
		sp.P = 32
	}
	if sp.Scale == 0 {
		sp.Scale = 1
	}
	if sp.Net == "" {
		sp.Net = "uniform"
	}
	if _, err := sp.config(); err != nil {
		return err
	}
	switch sp.Scheduler {
	case "":
		sp.Scheduler = "det"
	case "det":
	default:
		return fmt.Errorf("scheduler must be det, got %q", sp.Scheduler)
	}
	if _, err := harness.ParseCells(sp.Cells); err != nil {
		return err
	}
	switch sp.Kind {
	case "chaos", "recovery":
		if _, err := faultPlans(sp.Kind, sp.FaultPlan); err != nil {
			return err
		}
		if sp.Kind == "recovery" && len(sp.Seeds) == 0 {
			sp.Seeds = []uint64{1, 2}
		}
	case "check":
		if sp.Nodes == 0 {
			sp.Nodes = 2
		}
		if sp.Nodes < 2 || sp.Nodes > 3 {
			return fmt.Errorf("nodes must be 2 or 3, got %d", sp.Nodes)
		}
		if sp.Blocks == 0 {
			sp.Blocks = 2
		}
		if sp.Blocks < 2 || sp.Blocks > 4 {
			return fmt.Errorf("blocks must be 2-4, got %d", sp.Blocks)
		}
		if sp.MaxSchedules == 0 {
			sp.MaxSchedules = 5000
		}
		if _, err := checkSystems(sp.Protocol); err != nil {
			return err
		}
	}
	return nil
}

// config is the machine configuration the spec describes: what `lcmbench`
// builds from the same tuple given as flags, so server-mode results are
// byte-identical to process-mode runs.
func (sp JobSpec) config() (workloads.Config, error) {
	cfg, err := harness.Tuple{P: sp.P, Scale: sp.Scale, BlockSize: sp.BlockSize, KVSkew: sp.KVSkew,
		Net: sp.Net, LinkBW: sp.LinkBW, NILat: sp.NILat}.Config()
	cfg.Verify, cfg.SchedSeed = sp.Verify, sp.SchedSeed
	return cfg, err
}

// CacheKey returns the content address of the spec's result: the SHA-256
// of the canonical JSON of the normalized tuple, of which every result is a
// pure function.
func (sp JobSpec) CacheKey() string {
	b, err := json.Marshal(sp)
	if err != nil {
		panic(err) // a struct of strings, numbers and slices of them
	}
	sum := sha256.Sum256(append([]byte(specSchema+":"), b...))
	return hex.EncodeToString(sum[:])
}
