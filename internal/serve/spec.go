// Package serve runs the simulator's grid as a long-running service:
// grid jobs (Table-1 cells × memory systems, the runs behind Table 1 and
// Figures 2 and 3) are submitted behind a bounded-concurrency queue with
// streaming NDJSON progress, a content-addressed result cache keyed on
// the full deterministic run tuple, and a Prometheus-text /metrics
// surface exporting the per-node simulation counters that otherwise only
// land in JSON/CSV files.  The other campaigns have their own front ends:
// `lcmbench -netsweep`, `-chaos` and `-recovery`, and `lcmcheck`.
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

	"lcm/internal/harness"
	"lcm/internal/workloads"
)

// JobSpec is the wire shape of one submitted job: the deterministic run
// tuple plus host-side execution knobs.  The zero value of every field
// means "the default", so a spec with explicit defaults and one that
// omits them normalize to the same tuple and hit the same cache entry.
type JobSpec struct {
	// Kind is "grid", the only campaign the server runs.  The field stays
	// because every client sends it and the normalized tuple's canonical
	// bytes, and so every cache key, carry it.
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
}

// specSchema versions the cache key; bump when normalization or result
// rendering changes meaning so stale entries cannot be served.
const specSchema = "lcmd/1"

// movedKinds maps the campaign kinds the server does not run to the
// command that runs each, for the refusal to name.
var movedKinds = map[string]string{
	"netsweep": "lcmbench -netsweep",
	"chaos":    "lcmbench -chaos",
	"recovery": "lcmbench -recovery",
	"check":    "lcmcheck",
}

// Normalize applies defaults and validates the spec in place, so that
// every field of the result is the value the run will actually use (and
// the cache key is canonical).  It returns an error suitable for a 400
// response.
func (sp *JobSpec) Normalize() error {
	if cmd, ok := movedKinds[sp.Kind]; ok {
		return fmt.Errorf("kind %q is not served: run %s", sp.Kind, cmd)
	}
	if sp.Kind != "grid" {
		return fmt.Errorf("unknown kind %q (want grid)", sp.Kind)
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
