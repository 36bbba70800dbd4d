package serve

import "testing"

// A spec's machine configuration is the one lcmbench builds from the same
// tuple: a uniform tuple leaves Net nil (the bit-exact historical charges
// path), the fat tree constructs the model config with its knobs.
func TestBuildConfigNetSelection(t *testing.T) {
	sp := normalized(t, JobSpec{Kind: "grid", P: 8, Scale: 16, Verify: true, SchedSeed: 7})
	if cfg, err := sp.config(); err != nil || cfg.Net != nil || cfg.P != 8 || !cfg.Verify || cfg.SchedSeed != 7 {
		t.Errorf("uniform default built %+v, %v", cfg, err)
	}
	sp = normalized(t, JobSpec{Kind: "grid", P: 8, Scale: 16, Net: "fattree", LinkBW: 8, NILat: 100})
	cfg, err := sp.config()
	if err != nil || cfg.Net == nil || cfg.Net.Model != "fattree" || cfg.Net.CyclesPerByte != 8 || cfg.Net.NICycles != 100 {
		t.Errorf("fattree spec built net config %+v", cfg.Net)
	}
}

func TestConstructorClamps(t *testing.T) {
	c := NewCache(0)
	c.Put("k1", []byte("x"), "j")
	c.Put("k2", []byte("y"), "j")
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("NewCache(0) entries = %d, want clamp to 1", st.Entries)
	}
	js := NewJobStats(0)
	js.AddRecords([]RecordSample{{Job: "a"}, {Job: "b"}})
	if samples, _, _ := js.snapshot(); len(samples) != 1 {
		t.Errorf("NewJobStats(0) retained %d samples, want clamp to 1", len(samples))
	}
	q := NewQueue(0, 0, func(*Job) {})
	if err := q.Submit(newJob("j1", JobSpec{}, "")); err != nil {
		t.Errorf("clamped queue rejected a submission: %v", err)
	}
	q.Drain()
	if err := q.Submit(newJob("j2", JobSpec{}, "")); err != ErrDraining {
		t.Errorf("Submit after Drain = %v, want ErrDraining", err)
	}
	q.Drain() // idempotent
}

func TestNormalizeBoundsChecks(t *testing.T) {
	for _, sp := range []JobSpec{
		{Kind: "grid", P: -1},
		{Kind: "grid", P: 16385},
		{Kind: "grid", BlockSize: -32},
	} {
		spec := sp
		if err := spec.Normalize(); err == nil {
			t.Errorf("Normalize(%+v) accepted an out-of-bounds spec", sp)
		}
	}
	ok := normalized(t, JobSpec{Kind: "grid"})
	if ok.P != 32 || ok.Scale != 1 || ok.Net != "uniform" || ok.Scheduler != "det" {
		t.Errorf("grid defaults = %+v, want p=32 scale=1 net=uniform scheduler=det", ok)
	}
}
