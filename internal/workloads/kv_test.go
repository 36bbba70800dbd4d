package workloads

import (
	"strings"
	"testing"

	"lcm/internal/cstar"
)

// kvTestSpec is a small serving campaign with two mid-run reshard
// epochs (phases 2 and 4 of 6), sized so the full system x machine-size
// matrix stays fast.
func kvTestSpec(mix string) KVSpec {
	return KVSpec{Keys: 2048, Shards: 16, Streams: 8, Phases: 6,
		OpsPerStream: 32, Skew: 0.99, Mix: mix, ReshardEvery: 2, Seed: 7}
}

var kvSystems = []cstar.System{cstar.Copying, cstar.LCMscc, cstar.LCMmcc}

// TestKVAnswerIdenticalAcrossSystemsAndP is the differential statement
// of the KV consistency contract: the final per-shard store checksums
// and per-stream get checksums must be identical across all three
// memory systems and machine sizes P in {1,4,8}, with resharding
// epochs in the middle of the run — and every run must also verify
// against the sequential reference.
func TestKVAnswerIdenticalAcrossSystemsAndP(t *testing.T) {
	for _, mix := range []string{"read", "write"} {
		spec := kvTestSpec(mix)
		var base Result
		first := true
		for _, p := range []int{1, 4, 8} {
			for _, sys := range kvSystems {
				r := RunKV(sys, spec, Config{P: p, Verify: true})
				if r.Err != nil {
					t.Fatalf("%s P=%d %v: %v", mix, p, sys, r.Err)
				}
				if first {
					base, first = r, false
					continue
				}
				if r.KV.Answer != base.KV.Answer {
					t.Errorf("%s P=%d %v: answer %#x, want %#x", mix, p, sys, r.KV.Answer, base.KV.Answer)
				}
				if r.KV.GetSum != base.KV.GetSum {
					t.Errorf("%s P=%d %v: getsum %#x, want %#x", mix, p, sys, r.KV.GetSum, base.KV.GetSum)
				}
				for s := range base.KV.PerShard {
					if r.KV.PerShard[s] != base.KV.PerShard[s] {
						t.Errorf("%s P=%d %v: shard %d checksum %#x, want %#x",
							mix, p, sys, s, r.KV.PerShard[s], base.KV.PerShard[s])
					}
				}
				if r.KV.Ops != base.KV.Ops || r.KV.Gets != base.KV.Gets || r.KV.Puts != base.KV.Puts {
					t.Errorf("%s P=%d %v: ops %d/%d/%d, want %d/%d/%d", mix, p, sys,
						r.KV.Ops, r.KV.Gets, r.KV.Puts, base.KV.Ops, base.KV.Gets, base.KV.Puts)
				}
			}
		}
	}
}

// TestKVReplayIdentical pins run-to-run determinism at the workload
// level: two runs of the same tuple agree on every counter.
func TestKVReplayIdentical(t *testing.T) {
	spec := kvTestSpec("read")
	for _, seed := range []uint64{0, 42} {
		a := RunKV(cstar.LCMmcc, spec, Config{P: 4, SchedSeed: seed})
		b := RunKV(cstar.LCMmcc, spec, Config{P: 4, SchedSeed: seed})
		if a.Err != nil || b.Err != nil {
			t.Fatalf("seed %d: errs %v, %v", seed, a.Err, b.Err)
		}
		if a.Cycles != b.Cycles || a.C != b.C || a.KV.Answer != b.KV.Answer {
			t.Errorf("seed %d: replay drifted: cycles %d vs %d", seed, a.Cycles, b.Cycles)
		}
	}
}

// TestKVReshardAccounting checks the epoch bookkeeping: 6 phases with
// ReshardEvery=2 cross two epoch boundaries, migrating every shard's
// blocks each time at P>1; disabling resharding zeroes both counters.
func TestKVReshardAccounting(t *testing.T) {
	spec := kvTestSpec("read")
	r := RunKV(cstar.LCMmcc, spec, Config{P: 4, Verify: true})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.KV.Reshards != 2 {
		t.Errorf("Reshards = %d, want 2", r.KV.Reshards)
	}
	// Every shard changes owner at each epoch under rotation: 16 shards
	// x (128 keys / 4 per block) blocks x 2 epochs.
	wantBlocks := int64(16 * (128 / 4) * 2)
	if r.KV.MigratedBlocks != wantBlocks {
		t.Errorf("MigratedBlocks = %d, want %d", r.KV.MigratedBlocks, wantBlocks)
	}

	spec.ReshardEvery = -1
	r = RunKV(cstar.LCMmcc, spec, Config{P: 4, Verify: true})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.KV.Reshards != 0 || r.KV.MigratedBlocks != 0 {
		t.Errorf("resharding disabled: Reshards=%d MigratedBlocks=%d, want 0/0",
			r.KV.Reshards, r.KV.MigratedBlocks)
	}
}

// TestKVSkewShapesTraffic checks the generator end of the tentpole: a
// hotter Zipf exponent concentrates more requests on the hottest shard,
// and the mixes deliver their read fractions.
func TestKVSkewShapesTraffic(t *testing.T) {
	spec := kvTestSpec("read")
	spec.ReshardEvery = -1
	cold, hot := spec, spec
	cold.Skew, hot.Skew = 0.4, 1.4
	rc := RunKV(cstar.LCMmcc, cold, Config{P: 4})
	rh := RunKV(cstar.LCMmcc, hot, Config{P: 4})
	if rc.Err != nil || rh.Err != nil {
		t.Fatalf("errs %v, %v", rc.Err, rh.Err)
	}
	if rh.KV.HotShardOps <= rc.KV.HotShardOps {
		t.Errorf("skew 1.4 hot-shard ops %d not above skew 0.4's %d",
			rh.KV.HotShardOps, rc.KV.HotShardOps)
	}

	read := RunKV(cstar.LCMmcc, kvTestSpec("read"), Config{P: 4})
	write := RunKV(cstar.LCMmcc, kvTestSpec("write"), Config{P: 4})
	if read.Err != nil || write.Err != nil {
		t.Fatalf("errs %v, %v", read.Err, write.Err)
	}
	if frac := float64(read.KV.Gets) / float64(read.KV.Ops); frac < 0.90 {
		t.Errorf("read-mostly get fraction %.3f, want ~0.95", frac)
	}
	if frac := float64(write.KV.Gets) / float64(write.KV.Ops); frac < 0.40 || frac > 0.60 {
		t.Errorf("write-heavy get fraction %.3f, want ~0.50", frac)
	}
}

// TestKVBadMix reports a config error instead of running.
func TestKVBadMix(t *testing.T) {
	spec := kvTestSpec("read")
	spec.Mix = "chaotic"
	r := RunKV(cstar.LCMmcc, spec, Config{P: 2})
	if r.Err == nil || !strings.Contains(r.Err.Error(), "unknown mix") {
		t.Fatalf("err = %v, want unknown-mix config error", r.Err)
	}
}

// TestKVLabel renders the mix as-is (no dangling dash for schedules
// outside the paper's static/dynamic abbreviations).
func TestKVLabel(t *testing.T) {
	r := Result{Workload: "KV", Sched: "read"}
	if got := r.Label(); got != "KV-read" {
		t.Errorf("Label() = %q, want KV-read", got)
	}
}

// TestKVSpecNorm pins the alignment rounding: shard and stream extents
// are rounded up to 32-element (256-byte) multiples.
func TestKVSpecNorm(t *testing.T) {
	s := KVSpec{Keys: 1000, Shards: 16, OpsPerStream: 33}.norm()
	if s.Keys != 16*64 {
		t.Errorf("Keys = %d, want %d (per-shard rounded 63->64)", s.Keys, 16*64)
	}
	if s.OpsPerStream != 64 {
		t.Errorf("OpsPerStream = %d, want 64", s.OpsPerStream)
	}
	if s.Mix != "read" || s.Skew != 0.99 || s.Seed != 1 {
		t.Errorf("defaults not applied: %+v", s)
	}
}

// TestPaperKV pins the canonical serving configuration: already
// block-aligned, so norm leaves it untouched.
func TestPaperKV(t *testing.T) {
	p := PaperKV("write")
	if p.Keys != 65536 || p.Shards != 64 || p.Streams != 64 || p.Phases != 12 ||
		p.OpsPerStream != 256 || p.Skew != 0.99 || p.Mix != "write" ||
		p.ReshardEvery != 4 || p.Seed != 1 {
		t.Fatalf("PaperKV = %+v", p)
	}
	if n := p.norm(); n != p {
		t.Fatalf("paper spec not fixed under norm: %+v", n)
	}
}

// TestKVIntentEncoding round-trips the intent-slot encoding: gets
// encode to the zero slot, puts carry key and 32-bit value.
func TestKVIntentEncoding(t *testing.T) {
	if got := kvEncode(kvOp{key: 7, val: 9, put: false}); got != 0 {
		t.Fatalf("get encoded to %d, want 0", got)
	}
	if _, _, put := kvDecode(0); put {
		t.Fatal("zero slot decoded as a put")
	}
	slot := kvEncode(kvOp{key: 123456, val: 0xFFFF_FFFF, put: true})
	key, val, put := kvDecode(slot)
	if !put || key != 123456 || val != 0xFFFF_FFFF {
		t.Fatalf("decode = (%d, %d, %v), want (123456, 0xFFFFFFFF, true)", key, val, put)
	}
}
