// False-sharing relief — Section 7.4.
//
// False sharing happens when processors update different words that happen
// to live in the same cache block.  An invalidation protocol bounces the
// block between the writers on every interleaved write; an LCM-like system
// gives each writer a private copy and merges the disjoint words at
// reconciliation, so there is no ping-pong at all.
//
// Eight writers each own one word of every block.  Within a phase the
// writers sweep the blocks in rotating rounds, so consecutive writes to a
// block always come from different processors — the worst case for an
// invalidation protocol.  The kernel runs under the Stache baseline and
// under LCM-mcc and prints the traffic each needed.
//
// Run it with:
//
//	go run ./examples/falseshare
package main

import (
	"fmt"
	"os"

	"lcm"
)

const (
	nodes  = 8
	blocks = 8
	phases = 40
	rounds = 4 * blocks
)

func run(sys lcm.System) (int64, int64, bool) {
	m := lcm.NewMachine(lcm.MachineConfig{Nodes: nodes, System: sys})
	wpb := 8 // 8 int32 words per 32-byte block; word i belongs to node i
	counters := lcm.NewVectorI32(m, "counters", blocks*wpb, lcm.DataPolicy(sys), lcm.Interleaved)
	m.Freeze()

	m.Run(func(n *lcm.Node) {
		for ph := 0; ph < phases; ph++ {
			for r := 0; r < rounds; r++ {
				b := (n.ID + r) % blocks
				idx := b*wpb + n.ID
				counters.Set(n, idx, counters.Get(n, idx)+1)
				n.Barrier() // interleave the writers
			}
			n.ReconcileCopies()
		}
	})

	ok := true
	want := int32(phases * rounds / blocks)
	for i := 0; i < nodes; i++ {
		if counters.Peek(i) != want {
			ok = false
		}
	}
	return m.MaxClock(), m.TotalCounters().Misses, ok
}

func main() {
	fmt.Printf("false sharing: %d writers x %d blocks, %d phases of %d interleaved rounds\n\n",
		nodes, blocks, phases, rounds)
	fmt.Printf("%-10s %14s %10s %8s\n", "system", "cycles", "misses", "correct")
	var base int64
	for _, sys := range []lcm.System{lcm.Copying, lcm.LCMmcc} {
		cycles, misses, ok := run(sys)
		if sys == lcm.Copying {
			base = cycles
		}
		fmt.Printf("%-10s %14d %10d %8v\n", sys, cycles, misses, ok)
		if !ok {
			fmt.Fprintf(os.Stderr, "falseshare: %s produced wrong counter values\n", sys)
			os.Exit(1)
		}
		if sys == lcm.LCMmcc {
			fmt.Printf("\nLCM-mcc speedup: %.2fx — private copies merge word-by-word, so the\n",
				float64(base)/float64(cycles))
			fmt.Println("falsely-shared blocks never ping-pong between the writers.")
		}
	}
}
