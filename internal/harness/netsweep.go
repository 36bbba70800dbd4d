package harness

import (
	"fmt"

	"lcm/internal/cstar"
	"lcm/internal/net"
	"lcm/internal/stats"
	"lcm/internal/workloads"
)

// sweepSystems are the systems a sweep compares, and cop, mcc and scc the
// positions of their results in each row.  Most sweeps run only sweepPair,
// the baseline against LCM-mcc.
var (
	sweepSystems = []cstar.System{cstar.Copying, cstar.LCMmcc, cstar.LCMscc}
	sweepPair    = sweepSystems[:2]
)

const cop, mcc, scc = 0, 1, 2

func msgs(r workloads.Result) string  { return stats.GroupInt(r.C.Net.TotalMsgs()) }
func queue(r workloads.Result) string { return stats.GroupInt(r.C.Net.QueueCycles) }

// netSweep runs one cell over the fat-tree interconnect across machine
// sizes and link bandwidths (cycles per byte: higher = less bandwidth), for
// the Copying baseline and LCM-mcc.  This is the paper's central claim as a
// curve: LCM moves fewer and cheaper messages, so making the network a
// contended resource (more nodes, slower links) should widen its advantage,
// where the flat uniform model could only ever show a constant gap.  what
// names the cell in the title.
func (s *Suite) netSweep(cell CellSpec, what string, ps []int, cpbs []int64, note string) [][]workloads.Result {
	var points []point
	for _, p := range ps {
		for _, cpb := range cpbs {
			points = append(points, point{fmt.Sprintf("P=%d cpb=%d", p, cpb), func(cfg workloads.Config) workloads.Config {
				cfg.P = p
				cfg.Net = &net.Config{Model: "fattree", CyclesPerByte: cpb}
				return cfg
			}})
		}
	}
	return s.sweep("Sweep: "+what+" on the fat-tree interconnect", cell, points, sweepPair, []col{
		pick("copying:cycles", cop, cycles), pick("mcc:cycles", mcc, cycles),
		speedup("mcc advantage", cop, mcc),
		pick("copying:msgs", cop, msgs), pick("mcc:msgs", mcc, msgs),
		pick("copying:queue", cop, queue), pick("mcc:queue", mcc, queue),
	}, note)
}

// DefaultNetSweep runs the network sweeps at sizes suited to the scale:
// Stencil-dyn for steady neighbor exchange, then the read-mostly KV serving
// cell.  Serving traffic stresses the network differently from the paper's
// kernels: Zipf skew concentrates block ownership on hot shards, and each
// reshard epoch moves whole shards between owners in a burst, so the second
// sweep covers bursty ownership migration where the first covers steady
// neighbor exchange.
func (s *Suite) DefaultNetSweep() {
	ps, cpbs := []int{8, 16, 32}, []int64{2, 8, 32}
	s.netSweep(CellSpec{"Stencil", "dynamic"}, s.stencilName("dynamic"), ps, cpbs,
		`  with an explicit network, the baseline's larger message count turns into
  queueing: LCM's advantage widens as links slow down or the machine grows
  (the uniform model charged both systems the same flat per-message price).`)
	kv := s.KVSpec("read")
	s.netSweep(CellSpec{"KV", "read"},
		fmt.Sprintf("KV-read (%d keys, %d shards, skew %.2f)", kv.Keys, kv.Shards, kv.Skew), ps, cpbs,
		`  serving traffic adds reshard bursts: every migration epoch moves whole
  shards to new owners at a barrier, and the Zipf-hot shards keep a few
  links busy while the rest idle — watch mcc:queue vs copying:queue.`)
}
