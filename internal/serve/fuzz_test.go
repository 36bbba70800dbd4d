package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzJobSpec decodes arbitrary bytes the way POST /jobs does and
// normalizes the result: neither step may panic, and a spec that normalizes
// is a fixed point — normalizing it again succeeds and keeps its cache key,
// so a resubmitted normalized spec hits the entry its first run filled.
// Normalize checks the machine tuple through harness.Tuple.Config, which
// refuses a P a fat tree could not be built for before building it.  The
// seeds of the campaigns lcmd does not run (netsweep, chaos, recovery,
// check) start the fuzzer on its refusals.  Run with
// `go test -fuzz=FuzzJobSpec ./internal/serve` to explore.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"grid","cells":["Stencil-static","KV-read"],"p":8,"scale":16,"kv_skew":1.2,"kv_reshard":2}`,
		`{"kind":"netsweep","p":4,"scale":64,"net":"fattree","linkbw":3}`,
		`{"kind":"chaos","p":8,"scale":16,"fault_plan":"light"}`,
		`{"kind":"recovery","p":4,"scale":16,"seeds":[1,7]}`,
		`{"kind":"check","protocol":"mcc","nodes":3,"blocks":4,"max_schedules":-1}`,
		`{"kind":"grid","p":16385,"net":"fattree"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var sp JobSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&sp) != nil || sp.Normalize() != nil {
			return
		}
		key := sp.CacheKey()
		if err := sp.Normalize(); err != nil {
			t.Fatalf("normalized spec %+v no longer normalizes: %v", sp, err)
		}
		if again := sp.CacheKey(); again != key {
			t.Fatalf("normalizing %+v twice moved its cache key: %s, then %s", sp, key, again)
		}
	})
}
