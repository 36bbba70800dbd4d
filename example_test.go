package lcm_test

import (
	"fmt"

	"lcm"
)

// Example demonstrates the core LCM mechanism: writes in a parallel phase
// are private to the writer until reconciliation merges them.
func Example() {
	m := lcm.NewMachine(lcm.MachineConfig{Nodes: 2, System: lcm.LCMmcc})
	data := lcm.NewVectorI32(m, "data", 8, lcm.LooselyCoherent(), lcm.Interleaved)
	m.Freeze()

	m.Run(func(n *lcm.Node) {
		data.Set(n, n.ID, int32(100+n.ID)) // each node writes its element
		n.Barrier()
		if n.ID == 1 {
			// Node 0's write is still private: node 1 sees the
			// pre-phase value.
			fmt.Println("mid-phase read:", data.Get(n, 0))
		}
		n.ReconcileCopies()
		if n.ID == 1 {
			fmt.Println("after reconcile:", data.Get(n, 0))
		}
		n.Barrier()
	})
	// Output:
	// mid-phase read: 0
	// after reconcile: 100
}

// ExampleReduction shows an RSM reduction: private copies of a shared
// total are combined by the region's reconciliation function.
func ExampleReduction() {
	m := lcm.NewMachine(lcm.MachineConfig{Nodes: 4, System: lcm.LCMmcc})
	total := lcm.NewReduceF64(m, "total", lcm.LCMmcc)
	m.Freeze()

	m.Run(func(n *lcm.Node) {
		for i := 0; i < 10; i++ {
			total.Add(n, 1) // total %+= 1
		}
		total.Reduce(n)
		if n.ID == 0 {
			fmt.Println("total:", total.Value(n))
		}
		n.Barrier()
	})
	// Output:
	// total: 40
}

// ExampleDetect shows semantic-violation detection: two processors writing
// different values to one word is caught at reconciliation, with no access
// histories.
func ExampleDetect() {
	m := lcm.NewMachine(lcm.MachineConfig{Nodes: 2, System: lcm.LCMscc})
	v := lcm.NewVectorI32(m, "v", 8, lcm.Detect(false), lcm.Interleaved)
	m.Freeze()
	m.Run(func(n *lcm.Node) {
		v.Set(n, 3, int32(n.ID+1)) // conflicting writes to element 3
		n.ReconcileCopies()
	})
	for _, c := range lcm.Conflicts(m) {
		fmt.Println(c.Kind, "conflict at element", c.Elem)
	}
	// Output:
	// write-write conflict at element 3
}

// ExampleCall runs one parallel call, a four-point relaxation of a 6x6
// plate, on LCM and on the Copying baseline.  Either way every invocation
// reads the values from before the call.  Under LCM the memory system keeps
// them; under Copying the program keeps them in a second matrix, and the
// call declares it read-only and each node's chunk of the new one its own.
func ExampleCall() {
	for _, sys := range []lcm.System{lcm.LCMmcc, lcm.Copying} {
		m := lcm.NewMachine(lcm.MachineConfig{Nodes: 4, System: sys})
		plate := lcm.NewMatrixF32(m, "plate", 6, 6, lcm.DataPolicy(sys), lcm.Interleaved)
		old := plate
		if sys == lcm.Copying {
			old = lcm.NewMatrixF32(m, "plate.old", 6, 6, lcm.Coherent(), lcm.Interleaved)
		}
		m.Freeze()
		for j := 0; j < 6; j++ {
			plate.Poke(0, j, 100)
			old.Poke(0, j, 100)
		}
		call := lcm.Call{
			Plan:  lcm.Lower(lcm.AccessSummary{WritesOwnElementOnly: true, ReadsSharedData: true}, sys),
			Sched: lcm.StaticSchedule{}, Total: 4 * 4,
			Old: old, Writes: []lcm.Elements{plate.Interior()},
		}
		m.Run(func(n *lcm.Node) {
			call.Each(n, 0, func(idx int) {
				i, j := 1+idx/4, 1+idx%4
				plate.Set(n, i, j, (old.Get(n, i-1, j)+old.Get(n, i+1, j)+old.Get(n, i, j-1)+old.Get(n, i, j+1))/4)
			})
		})
		fmt.Println(sys, plate.Peek(1, 1), plate.Peek(2, 1))
	}
	// Output:
	// lcm-mcc 25 0
	// copying 25 0
}
