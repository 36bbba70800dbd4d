package serve

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"lcm/internal/stats"
	"lcm/internal/workloads"
)

// The observability surface follows a collector-registry layout: one
// collector per subsystem (tempest counters, interconnect, scheduler, job
// queue), each turning its subsystem's state into metric samples, and a
// registry rendering them as Prometheus text exposition.
// Per-node simulation counters reach the collectors through JobStats,
// the registry of stats.NodeCounters snapshots recorded when jobs
// complete — the same numbers the harness writes into BENCH JSON, so a
// /metrics scrape can be cross-checked against a job's result bytes.

// Metric is one sample: a name, help and type (shared across samples of
// the same name), ordered labels and a value.
type Metric struct {
	Name   string
	Help   string
	Type   string // "gauge" or "counter"
	Labels [][2]string
	Value  float64
}

// Collector turns one subsystem's state into metric samples.
type Collector interface {
	// Name identifies the collector ("tempest", "queue", ...).
	Name() string
	// Collect emits the subsystem's current samples.
	Collect(emit func(Metric))
}

// Registry renders registered collectors as Prometheus text exposition.
type Registry struct {
	mu         sync.Mutex
	collectors []Collector
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds collectors to the registry.
func (r *Registry) Register(cs ...Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, cs...)
}

// escapeLabel escapes a label value per the exposition format.
var escapeLabel = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// formatValue renders a sample value.  Integral values (the counters
// threaded out of the simulator) print as plain integers rather than
// strconv's shortest float form, which switches to exponent notation
// past ~1e6 and would make a scrape impossible to cross-check textually
// against the same numbers in BENCH JSON.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every collector's samples in the Prometheus
// text format: one HELP/TYPE header per metric name (in first-seen
// order), then its samples.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()

	var order []string
	byName := make(map[string][]Metric)
	for _, c := range collectors {
		c.Collect(func(m Metric) {
			if _, ok := byName[m.Name]; !ok {
				order = append(order, m.Name)
			}
			byName[m.Name] = append(byName[m.Name], m)
		})
	}
	for _, name := range order {
		ms := byName[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, ms[0].Help, name, ms[0].Type); err != nil {
			return err
		}
		for _, m := range ms {
			var sb strings.Builder
			sb.WriteString(name)
			if len(m.Labels) > 0 {
				sb.WriteByte('{')
				for i, lv := range m.Labels {
					if i > 0 {
						sb.WriteByte(',')
					}
					fmt.Fprintf(&sb, `%s="%s"`, lv[0], escapeLabel.Replace(lv[1]))
				}
				sb.WriteByte('}')
			}
			if _, err := fmt.Fprintf(w, "%s %s\n", sb.String(), formatValue(m.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// RecordSample is one completed (job, workload, system) grid record's
// simulation counters, as threaded out of the harness results.
type RecordSample struct {
	Job      string
	Workload string
	Sched    string
	System   string
	// SimCycles is the cell's simulated execution time (max node clock);
	// C carries the full per-node counter aggregate.
	SimCycles int64
	C         stats.NodeCounters
	// Host is how the host executed the cell: whether handlers ran ahead
	// of the scheduler token, and the scheduler's work.
	Host workloads.HostStats
}

// JobStats is the registry of per-job simulation counters and job
// accounting that the subsystem collectors read.  Samples are retained
// FIFO up to a cap so a long-lived server's scrape stays bounded.
type JobStats struct {
	mu      sync.Mutex
	max     int
	samples []RecordSample
	// byRunAhead totals the scheduler's work over every record ever added
	// (not only the retained samples), keyed by the run-ahead decision:
	// "" when handlers ran ahead, else the reason they did not.
	byRunAhead map[string]hostTotals
	wallSum    float64 // executed (non-cached) job runtime, seconds
	wallN      int64
}

// NewJobStats creates a store retaining at most maxSamples records.
func NewJobStats(maxSamples int) *JobStats {
	if maxSamples < 1 {
		maxSamples = 1
	}
	return &JobStats{max: maxSamples, byRunAhead: make(map[string]hostTotals)}
}

// hostTotals accumulates HostStats over records.
type hostTotals struct {
	records, grants, handoffs, applies int64
}

// AddRecords appends one completed job's per-record counters.
func (js *JobStats) AddRecords(samples []RecordSample) {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.samples = append(js.samples, samples...)
	for _, s := range samples {
		t := js.byRunAhead[s.Host.Reason]
		t.records++
		t.grants += s.Host.Grants
		t.handoffs += s.Host.Handoffs
		t.applies += s.Host.Applies
		js.byRunAhead[s.Host.Reason] = t
	}
	if over := len(js.samples) - js.max; over > 0 {
		js.samples = append([]RecordSample(nil), js.samples[over:]...)
	}
}

// JobExecuted accounts one executed (not cache-served) job.
func (js *JobStats) JobExecuted(wallSeconds float64) {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.wallSum += wallSeconds
	js.wallN++
}

// hostSnapshot copies the per-decision scheduler totals.
func (js *JobStats) hostSnapshot() map[string]hostTotals {
	js.mu.Lock()
	defer js.mu.Unlock()
	out := make(map[string]hostTotals, len(js.byRunAhead))
	for k, v := range js.byRunAhead {
		out[k] = v
	}
	return out
}

func (js *JobStats) snapshot() ([]RecordSample, float64, int64) {
	js.mu.Lock()
	defer js.mu.Unlock()
	return append([]RecordSample(nil), js.samples...), js.wallSum, js.wallN
}

// recordLabels builds the identifying label set of one grid record.
func recordLabels(s RecordSample) [][2]string {
	return [][2]string{
		{"job", s.Job}, {"workload", s.Workload}, {"sched", s.Sched}, {"system", s.System},
	}
}

// tempestCollector exports the per-record tempest access counters — the
// paper's evaluation observables.
type tempestCollector struct{ js *JobStats }

func (c tempestCollector) Name() string { return "tempest" }

func (c tempestCollector) Collect(emit func(Metric)) {
	samples, _, _ := c.js.snapshot()
	for _, s := range samples {
		l := recordLabels(s)
		emit(Metric{"lcmd_tempest_simcycles", "Simulated execution time of the cell (max node clock).", "gauge", l, float64(s.SimCycles)})
		emit(Metric{"lcmd_tempest_simmisses", "Data-carrying protocol faults (the paper's cache-miss metric).", "gauge", l, float64(s.C.Misses)})
		emit(Metric{"lcmd_tempest_hits", "Accesses permitted by the access-control tags.", "gauge", l, float64(s.C.Hits)})
		emit(Metric{"lcmd_tempest_flushes", "Modified blocks returned home by flush or reconcile.", "gauge", l, float64(s.C.Flushes)})
		emit(Metric{"lcmd_tempest_barriers", "Global barriers per node, summed over nodes.", "gauge", l, float64(s.C.Barriers)})
	}
}

// netCollector exports the per-record interconnect counters.
type netCollector struct{ js *JobStats }

func (c netCollector) Name() string { return "net" }

func (c netCollector) Collect(emit func(Metric)) {
	samples, _, _ := c.js.snapshot()
	for _, s := range samples {
		l := recordLabels(s)
		emit(Metric{"lcmd_net_msgs", "Protocol messages injected into the interconnect.", "gauge", l, float64(s.C.Net.TotalMsgs())})
		emit(Metric{"lcmd_net_bytes", "Header plus payload bytes injected.", "gauge", l, float64(s.C.Net.Bytes)})
		emit(Metric{"lcmd_net_queue_cycles", "Cycles messages spent queueing for busy channels.", "gauge", l, float64(s.C.Net.QueueCycles)})
	}
}

// schedCollector exports the deterministic scheduler's work by run-ahead
// decision — so that what the simulator decided on its own (to run
// handlers ahead of the token or not, and why not) is on the scrape, next
// to what it cost.
type schedCollector struct{ js *JobStats }

func (c schedCollector) Name() string { return "scheduler" }

func (c schedCollector) Collect(emit func(Metric)) {
	host := c.js.hostSnapshot()
	reasons := make([]string, 0, len(host))
	for reason := range host {
		reasons = append(reasons, reason)
	}
	sort.Strings(reasons)
	for _, reason := range reasons {
		t := host[reason]
		l := [][2]string{{"run_ahead", "on"}, {"reason", ""}}
		if reason != "" {
			l = [][2]string{{"run_ahead", "off"}, {"reason", reason}}
		}
		emit(Metric{"lcmd_sched_records_total", "Executed grid records by whether protocol handlers ran ahead of the scheduler token, and why not.", "counter", l, float64(t.records)})
		emit(Metric{"lcmd_sched_grants_total", "Scheduling decisions of the deterministic scheduler.", "counter", l, float64(t.grants)})
		emit(Metric{"lcmd_sched_handoffs_total", "Scheduling decisions that moved the token to another node's coroutine.", "counter", l, float64(t.handoffs)})
		emit(Metric{"lcmd_sched_deferred_applies_total", "Scheduling decisions that applied a posted handler effect in place, without a switch.", "counter", l, float64(t.applies)})
	}
}

// queueCollector exports queue, job-state and cache gauges.
type queueCollector struct{ s *Server }

func (c queueCollector) Name() string { return "queue" }

func (c queueCollector) Collect(emit func(Metric)) {
	emit(Metric{"lcmd_queue_depth", "Jobs waiting to start.", "gauge", nil, float64(c.s.queue.Depth())})
	emit(Metric{"lcmd_jobs_running", "Jobs currently executing.", "gauge", nil, float64(c.s.queue.Running())})
	draining := 0.0
	if c.s.queue.Draining() {
		draining = 1
	}
	emit(Metric{"lcmd_draining", "1 while the server is draining for shutdown.", "gauge", nil, draining})
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		emit(Metric{"lcmd_jobs_total", "Jobs by lifecycle state.", "gauge",
			[][2]string{{"state", string(st)}}, float64(c.s.jobsInState(st))})
	}
	_, wallSum, wallN := c.s.stats.snapshot()
	emit(Metric{"lcmd_job_wall_seconds_sum", "Total host runtime of executed jobs.", "counter", nil, wallSum})
	emit(Metric{"lcmd_job_wall_seconds_count", "Executed jobs with measured runtime.", "counter", nil, float64(wallN)})
	cs := c.s.cache.Stats()
	emit(Metric{"lcmd_cache_hits_total", "Result-cache hits.", "counter", nil, float64(cs.Hits)})
	emit(Metric{"lcmd_cache_misses_total", "Result-cache misses.", "counter", nil, float64(cs.Misses)})
	emit(Metric{"lcmd_cache_entries", "Resident result-cache entries.", "gauge", nil, float64(cs.Entries)})
	emit(Metric{"lcmd_cache_bytes", "Resident result-cache bytes.", "gauge", nil, float64(cs.Bytes)})
	emit(Metric{"lcmd_cache_evictions_total", "Result-cache LRU evictions.", "counter", nil, float64(cs.Evictions)})
}
