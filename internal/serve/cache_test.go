package serve

import (
	"fmt"
	"strings"
	"testing"
)

// normalized returns a normalized copy of sp, failing the test on error.
func normalized(t *testing.T, sp JobSpec) JobSpec {
	t.Helper()
	if err := sp.Normalize(); err != nil {
		t.Fatalf("Normalize(%+v): %v", sp, err)
	}
	return sp
}

func keyOf(t *testing.T, sp JobSpec) string {
	t.Helper()
	return normalized(t, sp).CacheKey()
}

// The cache key is the content address of the full deterministic tuple:
// the same tuple (with or without explicit defaults) maps to the same
// key, and flipping any one of seed, P, net, scheduler seed, block size
// or fault plan changes it.
func TestCacheKeyTupleSensitivity(t *testing.T) {
	base := JobSpec{Kind: "grid", Cells: []string{"Stencil-static"}, P: 8, Scale: 16}

	if got, want := keyOf(t, base), keyOf(t, base); got != want {
		t.Fatalf("same tuple produced different keys: %s vs %s", got, want)
	}
	// Explicit defaults and implicit defaults are the same tuple.
	explicit := base
	explicit.Scheduler = "det"
	explicit.Net = "uniform"
	if keyOf(t, base) != keyOf(t, explicit) {
		t.Errorf("explicit defaults changed the key")
	}
	// The address of a tuple never changes: results cached under it by an
	// older lcmd must still be found.
	const pinned = "2f924150dc9056c67cb8bddcf782589bf44f198a122080ec85ed635f6fcf91ea"
	if got := keyOf(t, base); got != pinned {
		t.Errorf("key of %+v is %s, want the pinned %s", base, got, pinned)
	}

	flips := map[string]JobSpec{}
	f := base
	f.SchedSeed = 42
	flips["sched_seed"] = f
	f = base
	f.P = 16
	flips["p"] = f
	f = base
	f.Net = "fattree"
	flips["net"] = f
	f = base
	f.BlockSize = 64
	flips["blocksize"] = f
	f = base
	f.Scale = 32
	flips["scale"] = f
	f = base
	f.Verify = true
	flips["verify"] = f
	f = base
	f.Cells = []string{"Threshold"}
	flips["cells"] = f
	f = base
	f.Cells = []string{"KV-read"}
	flips["kv cell"] = f
	f = base
	f.KVSkew = 1.2
	flips["kv_skew"] = f
	f = base
	f.KVReshard = -1
	flips["kv_reshard"] = f

	baseKey := keyOf(t, base)
	seen := map[string]string{baseKey: "base"}
	for name, sp := range flips {
		k := keyOf(t, sp)
		if prev, dup := seen[k]; dup {
			t.Errorf("flipping %s collided with %s (key %s)", name, prev, k)
		}
		seen[k] = name
	}

	// Fault plan and recovery seeds are part of the recovery tuple.
	rec := JobSpec{Kind: "recovery", P: 4, Scale: 16, FaultPlan: "drop-1pct"}
	recFlip := rec
	recFlip.FaultPlan = "dup-storm"
	recSeeds := rec
	recSeeds.Seeds = []uint64{7}
	if keyOf(t, rec) == keyOf(t, recFlip) {
		t.Errorf("flipping fault_plan did not change the key")
	}
	if keyOf(t, rec) == keyOf(t, recSeeds) {
		t.Errorf("flipping recovery seeds did not change the key")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	put := func(i int) { c.Put(fmt.Sprintf("k%d", i), []byte{byte(i)}, "t", "j") }
	put(1)
	put(2)
	if _, _, _, ok := c.Get("k1"); !ok { // k1 now most recent
		t.Fatalf("k1 missing before capacity reached")
	}
	put(3) // evicts k2, the least recently used
	if _, _, _, ok := c.Get("k2"); ok {
		t.Errorf("k2 survived eviction; LRU order wrong")
	}
	if _, _, _, ok := c.Get("k1"); !ok {
		t.Errorf("k1 evicted despite recent use")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 2 entries, 1 eviction", st)
	}
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 2 hits, 1 miss", st)
	}
	if st.Bytes != 2 {
		t.Errorf("stats bytes = %d, want 2", st.Bytes)
	}
}

func TestNormalizeRejectsBadSpecs(t *testing.T) {
	// A field the kind never reads is refused by name, so it cannot give
	// one campaign two cache keys.
	for _, c := range []struct {
		sp    JobSpec
		field string
	}{
		{JobSpec{Kind: "chaos", Cells: []string{"Threshold"}}, "cells"},
		{JobSpec{Kind: "netsweep", Cells: []string{"Threshold"}}, "cells"},
		{JobSpec{Kind: "check", Cells: []string{"Threshold"}}, "cells"},
		{JobSpec{Kind: "grid", Seeds: []uint64{1}}, "seeds"},
		{JobSpec{Kind: "chaos", Seeds: []uint64{1}}, "seeds"},
		{JobSpec{Kind: "grid", Protocol: "scc"}, "protocol"},
		{JobSpec{Kind: "recovery", Nodes: 2}, "nodes"},
		{JobSpec{Kind: "netsweep", Blocks: 2}, "blocks"},
		{JobSpec{Kind: "chaos", Script: "mixed"}, "script"},
		{JobSpec{Kind: "grid", MaxSchedules: 100}, "max_schedules"},
		{JobSpec{Kind: "chaos", KVSkew: 1.2}, "kv_skew"},
		{JobSpec{Kind: "recovery", KVReshard: 2}, "kv_reshard"},
		{JobSpec{Kind: "check", KVSkew: 1.2}, "kv_skew"},
		{JobSpec{Kind: "netsweep", FaultPlan: "light"}, "fault_plan"},
		{JobSpec{Kind: "check", FaultPlan: "light"}, "fault_plan"},
	} {
		spec := c.sp
		err := spec.Normalize()
		if err == nil || !strings.HasPrefix(err.Error(), c.field+" applies only to ") || !strings.Contains(err.Error(), "not to a "+c.sp.Kind+" job") {
			t.Errorf("Normalize(%+v) = %v, want an error naming %s and %s", c.sp, err, c.field, c.sp.Kind)
		}
	}
	// The KV knobs are read by the kinds that run KV cells.
	for _, sp := range []JobSpec{{Kind: "grid", KVSkew: 1.2}, {Kind: "netsweep", KVReshard: 2}} {
		normalized(t, sp)
	}
	bad := []JobSpec{
		{Kind: "nope"},
		{Kind: "grid", Cells: []string{"Mandelbrot"}},
		{Kind: "grid", BlockSize: 48},
		{Kind: "grid", Scale: -1},
		{Kind: "grid", Scheduler: "cooperative"},
		{Kind: "grid", Net: "torus"},
		{Kind: "grid", FaultPlan: "light"}, // fault plans are chaos/recovery-only
		{Kind: "chaos", FaultPlan: "nonexistent"},
		{Kind: "recovery", FaultPlan: "nonexistent"},
		{Kind: "check", Nodes: 9},
		{Kind: "check", Protocol: "mesi"},
		{Kind: "grid", KVSkew: -0.5},
		{Kind: "grid", Net: "fattree", LinkBW: -5}, // a link that finishes before it starts
		{Kind: "grid", Net: "fattree", NILat: -7},
		{Kind: "grid", LinkBW: 3}, // the uniform model never reads it: one run, two keys
	}
	for _, sp := range bad {
		spec := sp
		if err := spec.Normalize(); err == nil {
			t.Errorf("Normalize(%+v) accepted a bad spec", sp)
		}
	}
}
