// Command benchdiff compares two BENCH_*.json benchmark trajectory files
// produced by lcmbench -json: every simulation observable of each record —
// workload, sched, system, simulated cycles, misses, clean copies,
// verification status, network message/byte counts, and the
// serving-workload (KV) counters and answer checksum — and fails on any
// difference.  Only host-time fields (wall clock, the file timestamp) are
// excluded: every observable, simulated cycles and Copying fault counts
// included, is a pure function of (workload, P, schedule seed) at every P
// (internal/sched), so two runs of the same configuration must be
// bit-identical with no carve-outs.  Comparing files recorded under
// different schedule seeds is a configuration mismatch, reported before any
// record is compared.  Host time is lcmperf's business (bench/), not this
// tool's.
//
//	benchdiff -identical a.json b.json
//
// Exit status: 0 on pass, 1 on mismatch, 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"lcm/internal/harness"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(1)
}

func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(2)
}

func load(path string) harness.BenchFile {
	data, err := os.ReadFile(path)
	if err != nil {
		usage("%v", err)
	}
	var bf harness.BenchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		usage("%s: %v", path, err)
	}
	if len(bf.Records) == 0 {
		usage("%s: no records", path)
	}
	return bf
}

func key(r harness.BenchRecord) string {
	return r.Workload + "/" + r.Sched + "/" + r.System
}

func main() {
	identical := flag.Bool("identical", false, "compare every simulation observable exactly (the only mode; required)")
	flag.Parse()
	if !*identical || flag.NArg() != 2 {
		usage("usage: benchdiff -identical a.json b.json")
	}
	a, b := load(flag.Arg(0)), load(flag.Arg(1))

	if a.P != b.P || a.Scale != b.Scale || a.Net != b.Net {
		fail("configuration mismatch: p/scale/net %d/%d/%q vs %d/%d/%q",
			a.P, a.Scale, a.Net, b.P, b.Scale, b.Net)
	}
	if a.Scheduler != b.Scheduler || a.SchedSeed != b.SchedSeed {
		fail("configuration mismatch: scheduler %q seed %d vs %q seed %d (records from different schedules are not comparable)",
			a.Scheduler, a.SchedSeed, b.Scheduler, b.SchedSeed)
	}
	if len(a.Records) != len(b.Records) {
		fail("record count mismatch: %d vs %d", len(a.Records), len(b.Records))
	}

	bad := 0
	for i := range a.Records {
		ra, rb := a.Records[i], b.Records[i]
		if key(ra) != key(rb) {
			fail("record %d identity mismatch: %s vs %s", i, key(ra), key(rb))
		}
		diff := func(field string, va, vb any) {
			fmt.Fprintf(os.Stderr, "benchdiff: %s: %s drifted: %v vs %v\n", key(ra), field, va, vb)
			bad++
		}
		if ra.SimCycles != rb.SimCycles {
			diff("simcycles", ra.SimCycles, rb.SimCycles)
		}
		if ra.SimMisses != rb.SimMisses {
			diff("simmisses", ra.SimMisses, rb.SimMisses)
		}
		if ra.CleanCopies != rb.CleanCopies {
			diff("cleancopies", ra.CleanCopies, rb.CleanCopies)
		}
		if ra.Verified != rb.Verified {
			diff("verified", ra.Verified, rb.Verified)
		}
		if ra.NetMsgs != rb.NetMsgs {
			diff("net_msgs", ra.NetMsgs, rb.NetMsgs)
		}
		if ra.NetBytes != rb.NetBytes {
			diff("net_bytes", ra.NetBytes, rb.NetBytes)
		}
		if ra.NetQueueCycles != rb.NetQueueCycles {
			diff("net_queue_cycles", ra.NetQueueCycles, rb.NetQueueCycles)
		}
		if ra.MaxLinkBusy != rb.MaxLinkBusy {
			diff("max_link_busy", ra.MaxLinkBusy, rb.MaxLinkBusy)
		}
		if ra.KVOps != rb.KVOps {
			diff("kv_ops", ra.KVOps, rb.KVOps)
		}
		if ra.KVGets != rb.KVGets {
			diff("kv_gets", ra.KVGets, rb.KVGets)
		}
		if ra.KVPuts != rb.KVPuts {
			diff("kv_puts", ra.KVPuts, rb.KVPuts)
		}
		if ra.KVReshards != rb.KVReshards {
			diff("kv_reshards", ra.KVReshards, rb.KVReshards)
		}
		if ra.KVMigratedBlocks != rb.KVMigratedBlocks {
			diff("kv_migrated_blocks", ra.KVMigratedBlocks, rb.KVMigratedBlocks)
		}
		if ra.KVHotShardOps != rb.KVHotShardOps {
			diff("kv_hot_shard_ops", ra.KVHotShardOps, rb.KVHotShardOps)
		}
		if ra.KVAnswer != rb.KVAnswer {
			diff("kv_answer", ra.KVAnswer, rb.KVAnswer)
		}
	}
	if bad > 0 {
		fail("%d deterministic field(s) drifted across %d records", bad, len(a.Records))
	}
	fmt.Printf("benchdiff: identical across %d records\n", len(a.Records))
}
