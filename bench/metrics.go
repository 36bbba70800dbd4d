// Package lcmperf is the repository's host-time benchmark: four named
// workloads over the simulator and the lcmd service, a fixed list of
// end-to-end metrics with regression bounds, and a traced run that
// attributes host time to the repository's packages ("layers").
//
// The simulator is measured from outside — spans and timers around calls
// into each layer's public functions, the deterministic counters of
// workloads.Result, and a CPU profile of the benchmark's own process —
// so this package compiles against the same narrow surface as the root
// bench_test.go (see README.md).
package lcmperf

import (
	"fmt"
	"sort"
)

// MetricDef declares one metric: the name and unit it is printed with,
// the direction that counts as better, and for end-to-end metrics the
// share of the parent's median by which it may worsen (0 = no bound,
// per-layer metrics).
type MetricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// EndToEnd lists the metrics a user of the simulator or of lcmd sees.
// Every workload reports every one of them (see README.md for what one
// "op" is on each workload).  The bounds of the host-time metrics are
// three times the run-to-run spread measured on the 2-core sandbox the
// benchmark was written on (README.md, "Noise"), not the precision one
// would like; sim_cycles moves only with the seed's inputs.
var EndToEnd = []MetricDef{
	{"wall_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"sim_accesses_per_s", "1/s", "higher", 0.25},
	{"sim_cycles", "cycles", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// Layers are the CPU-profile buckets: the repository's hot packages, the
// Go runtime split into scheduling and collection, and the rest.
var Layers = []string{
	"tempest", "sched", "core", "stache", "net", "nodeset", "memsys", "cstar", "workloads", "other",
}

// ProbeDefs are the metrics measured by the probes program (bench/probes),
// which runs them in the traced run of the workload the layer dominates.
var ProbeDefs = probeDefs()

func probeDefs() []MetricDef {
	defs := []MetricDef{{Name: "harness.encode_ms", Unit: "ms"}, {Name: "workloads.inputgen_s", Unit: "s"}}
	for _, name := range []string{
		"tempest.hit_ns", "tempest.store_hit_ns", "tempest.span_ns_per_elem",
		"sched.grant_ns_p2", "sched.grant_ns_p32",
		"core.miss_ns_scc", "core.miss_ns_mcc", "core.mark_flush_ns", "core.reconcile_ns_per_block",
		"stache.miss_ns", "stache.inval_ns_per_sharer",
		"net.uniform_charge_ns", "net.fattree_charge_ns",
		"nodeset.iter_ns_per_member_p32", "nodeset.iter_ns_per_member_p256",
	} {
		defs = append(defs, MetricDef{Name: name, Unit: "ns"})
	}
	for i := range defs {
		defs[i].Better = "lower"
	}
	return defs
}

// PerLayer lists the metrics of single layers.  They carry no bound; a
// metric a workload does not exercise reads 0 there.
var PerLayer = perLayerDefs()

func perLayerDefs() []MetricDef {
	var defs []MetricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, MetricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// Exact simulated counts per pass, split by memory system: the
	// lcm-* runs feed core.*, the copying runs feed stache.*.
	add("count", "higher", "tempest.accesses", "tempest.hits")
	add("count", "lower", "tempest.barriers",
		"core.misses", "core.marks", "core.flushes", "core.words_flushed", "core.reconciles", "core.clean_copies",
		"stache.misses", "stache.upgrades", "stache.invalidations",
		"cstar.copied_words",
		"net.msgs", "net.bytes")
	add("cycles", "lower", "net.queue_cycles", "net.max_link_busy")
	add("ratio", "lower", "workloads.remote_miss_frac")
	add("count", "higher", "workloads.kv_ops")

	// Host time per deterministic simulated event.
	add("ns", "lower", "workloads.ns_per_access", "workloads.ns_per_miss", "workloads.ns_per_msg")
	seen := make(map[string]bool) // Threshold × copying runs in two workloads
	for _, w := range Workloads {
		for _, c := range w.Cells {
			for _, s := range w.Systems {
				if name := "workloads.cell_wall_s." + c + "." + s; !seen[name] {
					seen[name] = true
					add("s", "lower", name)
				}
			}
		}
	}
	add("s", "lower", "workloads.wall_median_s")
	add("ratio", "lower", "workloads.wall_iqr_frac")
	add("s", "lower", "workloads.verify_s")
	add("MB", "lower", "runtime.alloc_mb")

	// CPU-profile shares of the traced passes; they sum to 1.
	for _, l := range Layers {
		add("ratio", "lower", l+".cpu_share")
	}
	add("ratio", "lower", "runtime.cpu_share", "runtime.gc_share")

	defs = append(defs, ProbeDefs...)

	// Client-side view of lcmd, one span per request leg.
	add("ms", "lower", "serve.submit_ms_p50", "serve.progress_ms_p50", "serve.fetch_ms_p50",
		"serve.run_ms_p50_read", "serve.run_ms_p50_write", "serve.overhead_ms_p50",
		"serve.cold_read_ms_p50", "serve.cold_write_ms_p50", "serve.cold_ms_p90",
		"serve.warm_ms_p50", "serve.warm_ms_p99", "serve.metrics_scrape_ms")
	add("ratio", "lower", "serve.cache_hit_ratio_cold")
	add("ratio", "higher", "serve.cache_hit_ratio_warm")
	add("bytes", "lower", "serve.result_bytes")
	add("MB", "lower", "serve.rss_mb")

	add("count", "lower", "harness.golden_drift_cells")
	add("ratio", "lower", "bench.trace_overhead_frac")
	add("s", "lower", "bench.build_s")
	add("MB", "lower", "bench.peak_rss_mb")
	return defs
}

// Value is one measured metric as printed.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Record is the result of one run of one workload: the last line the
// benchmark prints.
type Record struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// fill builds the printed metric map: every declared metric of defs, 0
// where vals has no measurement.  A measured name that is not declared is
// a bug in this package.
func fill(defs []MetricDef, vals map[string]float64) (map[string]Value, error) {
	out := make(map[string]Value, len(defs))
	for _, d := range defs {
		out[d.Name] = Value{Value: vals[d.Name], Unit: d.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q is measured but not declared", name)
		}
	}
	return out, nil
}

// quantile returns the q-quantile (0..1) of vals by linear interpolation;
// 0 for an empty slice.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// iqrFrac is the distance between the quartiles as a share of the median.
func iqrFrac(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	return (quantile(vals, 0.75) - quantile(vals, 0.25)) / m
}

// perEvent divides host nanoseconds by an exact event count.
func perEvent(ns float64, events int64) float64 {
	if events == 0 {
		return 0
	}
	return ns / float64(events)
}
