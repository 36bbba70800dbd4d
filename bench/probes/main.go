// Command probes measures the unit costs of single layers — host ns per
// tag-checked hit, per protocol miss, per scheduler grant, per network
// charge — by timing loops around the layers' public calls, and prints
// them as one JSON object.
//
// It is a program of its own, apart from lcmperf, because it reaches far
// deeper into lcm/internal than the end-to-end code does: when an internal
// API changes shape this program stops building, lcmperf reports its
// metrics as 0 ("missing"), and the end-to-end benchmark still runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"lcm/internal/core"
	"lcm/internal/cost"
	"lcm/internal/cstar"
	"lcm/internal/graph"
	"lcm/internal/harness"
	"lcm/internal/memsys"
	"lcm/internal/mesh"
	"lcm/internal/net"
	"lcm/internal/nodeset"
	"lcm/internal/sched"
	"lcm/internal/stache"
	"lcm/internal/tempest"
	"lcm/internal/workloads"
)

// A probe runs one round of its loop and returns how long the timed part
// took and how many events it held.
type probe struct {
	name  string
	round func() (time.Duration, int)
}

func main() {
	workload := flag.String("workload", "", "run the probes of the layers this workload stresses")
	seconds := flag.Float64("seconds", 3, "time budget, shared equally between the probes")
	seed := flag.Uint64("seed", 1, "input seed")
	scale := flag.Int("scale", 4, "problem-size divisor of the workload (for inputgen_s)")
	p := flag.Int("p", 32, "simulated machine size of the workload (for inputgen_s)")
	flag.Parse()

	var probes []probe
	switch *workload {
	case "hit-path":
		probes = tempestProbes()
	case "lcm-miss":
		probes = append(schedProbes(*seed), coreProbes()...)
	case "irregular-fattree":
		probes = append(stacheProbes(), netProbes()...)
		probes = append(probes, nodesetProbes()...)
		probes = append(probes, inputgenProbe(*seed, *scale, *p))
	case "kv-lcmd":
		probes = []probe{encodeProbe()}
	}

	out := make(map[string]float64)
	for _, pr := range probes {
		out[pr.name] = perEvent(time.Duration(*seconds*float64(time.Second))/time.Duration(len(probes)), pr.round)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "probes:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// perEvent repeats round until budget is spent, three times at least, and
// returns the median cost of one event in nanoseconds.
func perEvent(budget time.Duration, round func() (time.Duration, int)) float64 {
	var ns []float64
	for t0 := time.Now(); len(ns) < 3 || time.Since(t0) < budget; {
		d, n := round()
		ns = append(ns, float64(d.Nanoseconds())/float64(n))
	}
	sort.Float64s(ns)
	return ns[len(ns)/2]
}

// onNode0 builds a machine with one region, runs body on node 0 alone
// (the other nodes return at once) and returns what body measured.
func onNode0(p int, proto tempest.Protocol, kind memsys.Kind, blocks uint64, body func(n *tempest.Node, r *memsys.Region) time.Duration) time.Duration {
	m := tempest.New(p, 32, cost.Default())
	r := m.AS.Alloc("data", blocks*32, kind, memsys.Interleaved)
	m.SetProtocol(proto)
	m.Freeze()
	var d time.Duration
	m.Run(func(n *tempest.Node) {
		if n.ID == 0 {
			d = body(n, r)
		}
	})
	return d
}

const hitLoops = 1 << 21

// tempestProbes time the tag-check fast path: scalar load, scalar store
// and the span engine, over a resident 4 KB window.
func tempestProbes() []probe {
	const words = 1024
	window := func(body func(n *tempest.Node, base memsys.Addr)) func() (time.Duration, int) {
		return func() (time.Duration, int) {
			d := onNode0(2, stache.New(), memsys.KindCoherent, words/8, func(n *tempest.Node, r *memsys.Region) time.Duration {
				for i := 0; i < words; i++ { // make every block resident and writable
					n.WriteF32(r.Base+memsys.Addr(i*4), 1)
				}
				t0 := time.Now()
				body(n, r.Base)
				return time.Since(t0)
			})
			return d, hitLoops
		}
	}
	var sink float32
	return []probe{
		{"tempest.hit_ns", window(func(n *tempest.Node, base memsys.Addr) {
			for i := 0; i < hitLoops; i++ {
				sink += n.ReadF32(base + memsys.Addr(i%words*4))
			}
		})},
		{"tempest.store_hit_ns", window(func(n *tempest.Node, base memsys.Addr) {
			for i := 0; i < hitLoops; i++ {
				n.WriteF32(base+memsys.Addr(i%words*4), float32(i))
			}
		})},
		{"tempest.span_ns_per_elem", window(func(n *tempest.Node, base memsys.Addr) {
			buf := make([]float32, words)
			for i := 0; i < hitLoops/words; i++ {
				n.ReadSpanF32(base, buf)
			}
			sink += buf[0]
		})},
	}
}

// schedProbes time a bare Yield→grant round trip: n goroutines pass the
// token round with no simulated work between scheduling points.
func schedProbes(seed uint64) []probe {
	ring := func(n int) func() (time.Duration, int) {
		const yields = 4096
		return func() (time.Duration, int) {
			s := sched.New(n, seed)
			var wg sync.WaitGroup
			t0 := time.Now()
			s.Start()
			for node := 0; node < n; node++ {
				wg.Add(1)
				go func(node int) {
					defer wg.Done()
					s.AwaitGrant(node)
					for i := 1; i <= yields; i++ {
						s.Yield(node, int64(i)*10)
					}
					s.Exit(node)
				}(node)
			}
			wg.Wait()
			return time.Since(t0), n * yields
		}
	}
	return []probe{{"sched.grant_ns_p2", ring(2)}, {"sched.grant_ns_p32", ring(32)}}
}

// remoteMisses reads one word of every block of a fresh region that is
// homed on the other node: each read is a first-touch remote miss.
func remoteMisses(proto func() tempest.Protocol, kind memsys.Kind) func() (time.Duration, int) {
	const blocks = 1 << 15
	return func() (time.Duration, int) {
		misses := 0
		d := onNode0(2, proto(), kind, blocks, func(n *tempest.Node, r *memsys.Region) time.Duration {
			var remote []memsys.Addr
			for b := 0; b < blocks; b++ {
				a := r.Base + memsys.Addr(b*32)
				if n.M.AS.HomeOf(n.M.AS.Block(a)) != n.ID {
					remote = append(remote, a)
				}
			}
			misses = len(remote)
			t0 := time.Now()
			for _, a := range remote {
				_ = n.ReadU32(a)
			}
			return time.Since(t0)
		})
		return d, misses
	}
}

func coreProbes() []probe {
	lcm := func(v core.Variant) func() tempest.Protocol {
		return func() tempest.Protocol { return core.New(v) }
	}
	return []probe{
		{"core.miss_ns_scc", remoteMisses(lcm(core.SCC), memsys.KindLCM)},
		{"core.miss_ns_mcc", remoteMisses(lcm(core.MCC), memsys.KindLCM)},
		// The mcc per-invocation mark + flush pair, the inner loop of
		// every LCM workload.
		{"core.mark_flush_ns", func() (time.Duration, int) {
			const loops = 1 << 16
			d := onNode0(2, core.New(core.MCC), memsys.KindLCM, 4, func(n *tempest.Node, r *memsys.Region) time.Duration {
				n.WriteU32(r.Base, 1)
				n.FlushCopies()
				t0 := time.Now()
				for i := 0; i < loops; i++ {
					n.WriteU32(r.Base, uint32(i))
					n.FlushCopies()
				}
				return time.Since(t0)
			})
			return d, loops
		}},
		// Two nodes each modify 32 of 64 blocks, then reconcile.
		{"core.reconcile_ns_per_block", func() (time.Duration, int) {
			const phases = 512
			m := tempest.New(2, 32, cost.Default())
			r := m.AS.Alloc("data", 64*32, memsys.KindLCM, memsys.Interleaved)
			m.SetProtocol(core.New(core.MCC))
			m.Freeze()
			t0 := time.Now()
			m.Run(func(n *tempest.Node) {
				for i := 0; i < phases; i++ {
					for blk := 0; blk < 32; blk++ {
						n.WriteU32(r.Base+memsys.Addr((blk*2+n.ID)*32), uint32(i))
					}
					n.ReconcileCopies()
				}
			})
			return time.Since(t0), phases * 64
		}},
	}
}

func stacheProbes() []probe {
	return []probe{
		{"stache.miss_ns", remoteMisses(func() tempest.Protocol { return stache.New() }, memsys.KindCoherent)},
		// All 32 nodes read every block; node 0 then writes each one,
		// which invalidates the 31 other copies.
		{"stache.inval_ns_per_sharer", func() (time.Duration, int) {
			const p, blocks = 32, 512
			m := tempest.New(p, 32, cost.Default())
			r := m.AS.Alloc("data", blocks*32, memsys.KindCoherent, memsys.Interleaved)
			m.SetProtocol(stache.New())
			m.Freeze()
			var d time.Duration
			m.Run(func(n *tempest.Node) {
				for b := 0; b < blocks; b++ {
					_ = n.ReadU32(r.Base + memsys.Addr(b*32))
				}
				n.Barrier()
				if n.ID == 0 {
					t0 := time.Now()
					for b := 0; b < blocks; b++ {
						n.WriteU32(r.Base+memsys.Addr(b*32), 1)
					}
					d = time.Since(t0)
				}
				n.Barrier()
			})
			return d, blocks * (p - 1)
		}},
	}
}

// netProbes time the pricing of one blocking round trip between changing
// pairs of 32 nodes, clock advancing, under each interconnect model.
func netProbes() []probe {
	charge := func(model string) func() (time.Duration, int) {
		const loops = 1 << 18
		return func() (time.Duration, int) {
			nw, err := net.New(net.Config{Model: model}, 32, cost.Default())
			if err != nil {
				panic(err) // both model names are the package's own
			}
			var c net.Counters
			var now int64
			t0 := time.Now()
			for i := 0; i < loops; i++ {
				src := i % 32
				now += nw.RoundTrip(src, (src+1+i%31)%32, 32, now, &c)
			}
			return time.Since(t0), loops
		}
	}
	return []probe{{"net.uniform_charge_ns", charge("uniform")}, {"net.fattree_charge_ns", charge("fattree")}}
}

// nodesetProbes time the invalidation fan-out shape: iterate a sharer set
// holding every fourth node, on both sides of the 64-node inline boundary.
func nodesetProbes() []probe {
	iter := func(p int) func() (time.Duration, int) {
		const loops = 1 << 16
		return func() (time.Duration, int) {
			s := nodeset.NewArena(p - 1).Make()
			for id := 0; id < p; id += 4 {
				s.Add(id)
			}
			sum := 0
			t0 := time.Now()
			for i := 0; i < loops; i++ {
				for it := s.Iter(); ; {
					id, ok := it.Next()
					if !ok {
						break
					}
					sum += id
				}
			}
			d := time.Since(t0)
			if sum == 0 {
				panic("nodeset probe iterated nothing")
			}
			return d, loops * (p / 4)
		}
	}
	return []probe{{"nodeset.iter_ns_per_member_p32", iter(32)}, {"nodeset.iter_ns_per_member_p256", iter(256)}}
}

// inputgenProbe times the constructors of the irregular workload's
// pointer-chasing inputs, the graph and the quad-tree mesh, at the
// workload's own sizes.  The unit is seconds per construction of both.
func inputgenProbe(seed uint64, scale, p int) probe {
	s := harness.New(io.Discard)
	s.Scale = scale
	us, as := s.UnstructuredSpec(), s.AdaptiveSpec("dynamic")
	return probe{"workloads.inputgen_s", func() (time.Duration, int) {
		t0 := time.Now()
		graph.Build(us.Nodes, us.Edges, seed)
		m := cstar.NewMachine(p, 32, cost.Default(), cstar.LCMmcc)
		q := mesh.New(m, "mesh", as.N, as.N, as.MaxDepth, cstar.DataPolicy(cstar.LCMmcc))
		m.Freeze()
		q.InitRoots()
		return time.Since(t0), 1e9 // perEvent reports ns per event: make that seconds
	}}
}

// encodeProbe times rendering a finished 18-record grid as the
// deterministic JSON and the CSV, which every lcmd grid job pays once.
func encodeProbe() probe {
	s := harness.New(io.Discard)
	s.Cfg = workloads.Config{P: 4}
	s.Scale = 32
	rows, err := s.RunCells(harness.GridCells())
	if err != nil {
		panic(err) // GridCells are the harness's own cells
	}
	return probe{"harness.encode_ms", func() (time.Duration, int) {
		const loops = 64
		t0 := time.Now()
		for i := 0; i < loops; i++ {
			if _, err := harness.MarshalDeterministic(s.Cfg, s.Scale, rows); err != nil {
				panic(err)
			}
			if err := harness.WriteCSV(io.Discard, rows); err != nil {
				panic(err)
			}
		}
		return time.Since(t0), loops * 1e6 // ns per event -> ms per encoding
	}}
}
