package lcmperf

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Options configures one run of one workload.
type Options struct {
	Workload Workload
	// Seed generates every input: Config.SchedSeed, UnstructuredSpec.Seed
	// and the lcmd sched_seed sequence.
	Seed uint64
	// Seconds is how long the run measures, set-ups included; at least
	// MinPasses timed passes run however long they take.
	Seconds   float64
	MinPasses int
	// Setups is how many times the workload is set up from nothing before
	// the first pass; the fastest set-up is setup_s.
	Setups int
	// EndToEnd and Layers select the metric lists of the Record.  Layers
	// also runs the traced passes and the probes.
	EndToEnd, Layers bool
	// P is the simulated machine size (the paper's 32).
	P int
	// Start is when the process started; the first set-up counts from it.
	Start time.Time
	// Dir is the benchmark's directory, where golden/ is read; OutDir
	// receives the Chrome trace.  Lcmd and Probes are built binaries
	// (Probes may be absent: its metrics then read 0).
	Dir, OutDir, Lcmd, Probes string
	// BuildSeconds is what building those binaries took (bench.build_s).
	BuildSeconds float64
	// UpdateGolden rewrites the workload's golden from this run.
	UpdateGolden bool
}

// counts are the exact simulated observables of one op that the layer
// metrics and the goldens are made of.
type counts struct {
	Cycles        int64 `json:"cycles"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	RemoteMisses  int64 `json:"remote_misses"`
	Upgrades      int64 `json:"upgrades"`
	Invalidations int64 `json:"invalidations"`
	Marks         int64 `json:"marks"`
	Flushes       int64 `json:"flushes"`
	WordsFlushed  int64 `json:"words_flushed"`
	Reconciles    int64 `json:"reconciles"`
	CleanCopies   int64 `json:"clean_copies"`
	CopiedWords   int64 `json:"copied_words"`
	Barriers      int64 `json:"barriers"`
	Msgs          int64 `json:"msgs"`
	Bytes         int64 `json:"bytes"`
	QueueCycles   int64 `json:"queue_cycles"`
	MaxLinkBusy   int64 `json:"max_link_busy"`
	KVOps         int64 `json:"kv_ops"`
}

func (c *counts) add(o counts) {
	c.Cycles += o.Cycles
	c.Hits += o.Hits
	c.Misses += o.Misses
	c.RemoteMisses += o.RemoteMisses
	c.Upgrades += o.Upgrades
	c.Invalidations += o.Invalidations
	c.Marks += o.Marks
	c.Flushes += o.Flushes
	c.WordsFlushed += o.WordsFlushed
	c.Reconciles += o.Reconciles
	c.CleanCopies += o.CleanCopies
	c.CopiedWords += o.CopiedWords
	c.Barriers += o.Barriers
	c.Msgs += o.Msgs
	c.Bytes += o.Bytes
	c.QueueCycles += o.QueueCycles
	c.MaxLinkBusy = max(c.MaxLinkBusy, o.MaxLinkBusy)
	c.KVOps += o.KVOps
}

// op is one (cell, system) run or one lcmd request.
type op struct {
	// id names the inputs ("Stencil-static/lcm-scc", "KV-read/4097"): two
	// ops with one id must agree in exact.
	id string
	// cell and system locate a simulator op; kind is "read" or "write"
	// for an lcmd request, and warm says it was a resubmission.
	cell, system, kind string
	warm               bool
	wall               time.Duration
	// lcm and stache hold the op's simulated observables by protocol: a
	// simulator op fills one of them, an lcmd job (three records) both.
	lcm, stache counts
	// exact is every observable of the op in comparable form: the
	// Result's Cycles, C and S, or the result body.
	exact any
	err   error
	// An lcmd request: its job, its legs, the server's own run time and
	// the size of the result.
	job                          string
	submit, progress, fetch, run time.Duration
	bytes                        int
}

// total returns the op's observables over both protocols.
func (x op) total() counts {
	n := x.lcm
	n.add(x.stache)
	return n
}

// pass is one run over the workload's ops.
type pass struct {
	ops  []op
	wall time.Duration
}

// target is a workload's system under test.
type target interface {
	// setUp builds the workload from nothing and runs its verified
	// warm-up; the ops it returns are the reference later passes are
	// compared with.
	setUp() ([]op, error)
	// pass runs the workload once, recording spans under parent when tr
	// is not nil.
	pass(k int, tr *tracer, parent int) pass
	// layerMetrics adds what only the target can measure (the serve
	// layer's view) from the timed and the traced passes.
	layerMetrics(timed, traced []pass, vals map[string]float64)
	// close stops what setUp started; setUp may follow again.
	close() error
}

// countFailures returns how many ops failed: an error, or an observable
// that differs from the reference op with the same inputs.
func countFailures(ref map[string]any, ops []op) int {
	failed := 0
	for _, o := range ops {
		want, known := ref[o.id]
		if o.err != nil || (known && want != o.exact) {
			failed++
		}
	}
	return failed
}

// hostProcs is the GOMAXPROCS of every process the benchmark measures:
// this one, lcmd and the probes.  The deterministic scheduler runs one
// simulated processor at a time, so a second P does no work in parallel:
// it turns goroutine hand-offs into cross-core wake-ups, which on the
// 2-vCPU sandbox make a pass a fifth longer on a quiet host and, on a busy
// one, longer by whatever the hypervisor takes to wake a halted vCPU
// (README.md, "Noise").  run.sh pins the processes to one CPU as well.
const hostProcs = 1

// Run measures one workload and returns its record, and the first error
// an op met (nil when every op was correct).
func Run(o Options) (Record, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(hostProcs))
	var tgt target
	if o.Workload.KV {
		tgt = &kvTarget{o: o}
	} else {
		tgt = &simTarget{o: o}
	}
	r := run{o: o, tgt: tgt, ref: make(map[string]any)}
	err := r.measure()
	if cerr := tgt.close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = r.firstErr
	}
	return r.rec, err
}

// run is the state of one measurement.
type run struct {
	o   Options
	tgt target
	rec Record
	// ref maps an op id to the observables it had when first seen: in the
	// verified warm-up, or else in the first pass that ran it.
	ref      map[string]any
	firstErr error
	// setups are the durations of every set-up so far, passes the number
	// of passes run.
	setups []float64
	passes int
}

// account books ops as attempted, and as failed where they are.  The
// compared observables are dropped afterwards: a warm pass would otherwise
// keep thousands of result bodies alive.
func (r *run) account(ops []op) {
	for _, x := range ops {
		if _, known := r.ref[x.id]; !known && x.err == nil && x.exact != nil {
			r.ref[x.id] = x.exact
		}
	}
	r.rec.Attempted += len(ops)
	r.rec.Failed += countFailures(r.ref, ops)
	for i := range ops {
		if ops[i].err != nil && r.firstErr == nil {
			r.firstErr = fmt.Errorf("%s: %w", ops[i].id, ops[i].err)
		}
		ops[i].exact = nil
	}
}

// setUp sets the target up from nothing, t0 being when that began (zero:
// now), and books the verified warm-up.
func (r *run) setUp(t0 time.Time) error {
	if err := r.tgt.close(); err != nil {
		return err
	}
	if t0.IsZero() {
		t0 = time.Now()
	}
	warm, err := r.tgt.setUp()
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())
	r.account(warm)
	return nil
}

// nextPass runs one pass, on a target set up afresh where the workload
// asks for that, and books its ops.
func (r *run) nextPass(k int, tr *tracer, parent int) (pass, error) {
	if r.o.Workload.Restart && r.passes > 0 {
		h := tr.begin("bench.setup", "", parent, 0)
		err := r.setUp(time.Time{})
		tr.end(h)
		if err != nil {
			return pass{}, err
		}
	}
	r.passes++
	runtime.GC()
	p := r.tgt.pass(k, tr, parent)
	c := tr.begin("bench.compare", "", parent, 0)
	r.account(p.ops)
	tr.end(c)
	return p, nil
}

// passesUntil runs passes until the next one would end after the deadline,
// and at least atLeast of them.
func passesUntil(deadline time.Time, atLeast int, each func(k int) error) error {
	var longest time.Duration
	for k := 0; k < atLeast || time.Until(deadline) > longest; k++ {
		t0 := time.Now()
		if err := each(k); err != nil {
			return err
		}
		longest = max(longest, time.Since(t0))
	}
	return nil
}

func (r *run) measure() error {
	o := r.o
	begin := time.Now()
	if !o.Start.IsZero() {
		begin = o.Start
	}

	// Set-up, several times over; the last one stays.
	for i := 0; i < max(o.Setups, 1); i++ {
		t0 := time.Time{}
		if i == 0 {
			t0 = begin
		}
		if err := r.setUp(t0); err != nil {
			return err
		}
	}

	// Timed passes: tracing and profiling off.
	budget := o.Seconds
	if o.Layers {
		budget *= 0.4 // the traced passes and the probes need the rest
	}
	var timed []pass
	var allocMB []float64
	err := passesUntil(begin.Add(seconds(budget)), max(o.MinPasses, 1), func(k int) error {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := r.nextPass(k, nil, -1)
		runtime.ReadMemStats(&after)
		timed = append(timed, p)
		allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		return err
	})
	if err != nil {
		return err
	}
	if o.UpdateGolden {
		if err := writeGolden(o, timed[0]); err != nil {
			return err
		}
	}

	// Another tenant of the host only ever adds time, and on a shared
	// 2-core box it does so for seconds at a stretch: the median pass
	// wanders by a tenth from run to run while the fastest pass does not
	// (README.md, "Noise").  So the run reports its fastest pass and its
	// fastest set-up, and the spread of all passes beside them.
	best := timed[0]
	var walls []float64
	for _, p := range timed {
		walls = append(walls, p.wall.Seconds())
		if p.wall < best.wall {
			best = p
		}
	}
	var bestN, first counts // pass 0 has the same inputs however many passes ran
	for _, x := range best.ops {
		bestN.add(x.total())
	}
	for _, x := range timed[0].ops {
		first.add(x.total())
	}
	wall := best.wall.Seconds()

	vals := make(map[string]float64)
	var defs []MetricDef
	if o.EndToEnd {
		defs = append(defs, EndToEnd...)
		vals["wall_s"] = wall
		vals["ops_per_s"] = float64(len(best.ops)) / wall
		vals["sim_accesses_per_s"] = float64(bestN.Hits+bestN.Misses) / wall
		vals["sim_cycles"] = float64(first.Cycles)
		vals["setup_s"] = slices.Min(r.setups)
	}
	if o.Layers {
		defs = append(defs, PerLayer...)
		layerCounts(timed[0], first, vals)
		vals["workloads.ns_per_access"] = perEvent(wall*1e9, bestN.Hits+bestN.Misses)
		vals["workloads.ns_per_miss"] = perEvent(wall*1e9, bestN.Misses)
		vals["workloads.ns_per_msg"] = perEvent(wall*1e9, bestN.Msgs)
		vals["workloads.wall_median_s"] = median(walls)
		vals["workloads.wall_iqr_frac"] = iqrFrac(walls)
		if !o.Workload.KV {
			for _, x := range best.ops {
				vals["workloads.cell_wall_s."+x.cell+"."+x.system] = x.wall.Seconds()
			}
			// A set-up is a verified pass; what it costs beyond a plain
			// pass is the sequential reference and the comparison.
			vals["workloads.verify_s"] = slices.Min(r.setups) - wall
			vals["runtime.alloc_mb"] = median(allocMB)
		}
		vals["bench.build_s"] = o.BuildSeconds
		vals["harness.golden_drift_cells"] = goldenDrift(o, timed[0])

		traced, err := r.tracedPasses(time.Now().Add(seconds(0.3*o.Seconds)), wall, vals)
		if err != nil {
			return err
		}
		r.tgt.layerMetrics(timed, traced, vals)
		runProbes(o, 0.3*o.Seconds, vals)
		vals["bench.peak_rss_mb"] = peakRSSMB("self")
	}

	metrics, err := fill(defs, vals)
	if err != nil {
		return err
	}
	r.rec.Metrics = metrics
	r.rec.Correct = r.rec.Failed == 0
	return nil
}

// layerCounts reports pass 0's exact simulated counts by layer.
func layerCounts(p pass, all counts, vals map[string]float64) {
	var lcm, stache counts
	for _, x := range p.ops {
		lcm.add(x.lcm)
		stache.add(x.stache)
	}
	vals["tempest.accesses"] = float64(all.Hits + all.Misses)
	vals["tempest.hits"] = float64(all.Hits)
	vals["tempest.barriers"] = float64(all.Barriers)
	vals["core.misses"] = float64(lcm.Misses)
	vals["core.marks"] = float64(lcm.Marks)
	vals["core.flushes"] = float64(lcm.Flushes)
	vals["core.words_flushed"] = float64(lcm.WordsFlushed)
	vals["core.reconciles"] = float64(lcm.Reconciles)
	vals["core.clean_copies"] = float64(lcm.CleanCopies)
	vals["stache.misses"] = float64(stache.Misses)
	vals["stache.upgrades"] = float64(stache.Upgrades)
	vals["stache.invalidations"] = float64(stache.Invalidations)
	vals["cstar.copied_words"] = float64(all.CopiedWords)
	vals["net.msgs"] = float64(all.Msgs)
	vals["net.bytes"] = float64(all.Bytes)
	vals["net.queue_cycles"] = float64(all.QueueCycles)
	vals["net.max_link_busy"] = float64(all.MaxLinkBusy)
	if all.Misses > 0 {
		vals["workloads.remote_miss_frac"] = float64(all.RemoteMisses) / float64(all.Misses)
	}
	vals["workloads.kv_ops"] = float64(all.KVOps)
}

// tracedPasses runs passes until the deadline with spans and the CPU
// profiler on, writes the Chrome trace, and reports the profile's shares
// and what tracing cost: the fastest traced pass against the fastest
// untraced one.  End-to-end numbers never come from here.
func (r *run) tracedPasses(deadline time.Time, untracedWall float64, vals map[string]float64) ([]pass, error) {
	tr := &tracer{}
	// The profile is of this process: it sees the simulator, which runs
	// here, and not lcmd, whose cpu_share metrics therefore stay 0.
	profiled := !r.o.Workload.KV
	var prof bytes.Buffer
	if profiled {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	root := tr.begin("bench.workload", r.o.Workload.Name, -1, 0)
	var traced []pass
	err := passesUntil(deadline, 1, func(k int) error {
		h := tr.begin("bench.pass", strconv.Itoa(k), root, 0)
		p, err := r.nextPass(k, tr, h)
		tr.end(h)
		traced = append(traced, p)
		return err
	})
	if err != nil {
		return nil, err
	}
	tr.end(root)
	if profiled {
		pprof.StopCPUProfile()
		shares, err := cpuShares(prof.Bytes())
		if err != nil {
			return nil, err
		}
		for name, s := range shares {
			vals[name] = s
		}
	}
	fastest := traced[0].wall
	for _, p := range traced {
		fastest = min(fastest, p.wall)
	}
	vals["bench.trace_overhead_frac"] = fastest.Seconds()/untracedWall - 1
	if err := os.MkdirAll(r.o.OutDir, 0o755); err != nil {
		return nil, err
	}
	return traced, tr.writeChrome(filepath.Join(r.o.OutDir, "trace-"+r.o.Workload.Name+".json"))
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// peakRSSMB reads VmHWM of a process ("self" or a pid) in MB; 0 where
// /proc does not say.
func peakRSSMB(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
