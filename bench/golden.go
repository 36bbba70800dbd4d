package lcmperf

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// golden is the committed record of a workload's simulated observables,
// per op of pass 0, at the inputs it names.  A change that claims to touch
// host time only must leave it alone.
type golden struct {
	Seed  uint64            `json:"seed"`
	P     int               `json:"p"`
	Scale int               `json:"scale"`
	Ops   map[string]counts `json:"ops"`
}

func goldenPath(o Options) string {
	return filepath.Join(o.Dir, "golden", o.Workload.Name+".json")
}

func goldenOf(o Options, p pass) golden {
	g := golden{Seed: o.Seed, P: o.P, Scale: o.Workload.Scale, Ops: make(map[string]counts)}
	for _, x := range p.ops {
		g.Ops[x.id] = x.total()
	}
	return g
}

// goldenDrift counts the ops of pass 0 whose observables differ from the
// committed golden.  It is information for the reviewer, not a failed op;
// -1 means there is no golden for these inputs (another seed or size).
func goldenDrift(o Options, p pass) float64 {
	b, err := os.ReadFile(goldenPath(o))
	if err != nil {
		return -1
	}
	var want golden
	if err := json.Unmarshal(b, &want); err != nil {
		return -1
	}
	got := goldenOf(o, p)
	if want.Seed != got.Seed || want.P != got.P || want.Scale != got.Scale {
		return -1
	}
	drift := 0
	for id, n := range got.Ops {
		if w, ok := want.Ops[id]; !ok || w != n {
			drift++
		}
	}
	return float64(drift)
}

// writeGolden replaces the workload's golden with pass 0's observables.
func writeGolden(o Options, p pass) error {
	b, err := json.MarshalIndent(goldenOf(o, p), "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath(o)), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(o), append(b, '\n'), 0o644)
}
