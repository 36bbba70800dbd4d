package stache

import (
	"testing"
	"testing/quick"

	"lcm/internal/cost"
	"lcm/internal/memsys"
	"lcm/internal/tempest"
)

func TestInvariantsAfterScriptedScenarios(t *testing.T) {
	m, r, pr := newMachine(t, 4, 8)
	m.Run(func(n *tempest.Node) {
		// Read sharing, upgrade, 3-hop read, 3-hop write, barriers.
		n.ReadU32(r.Base)
		n.Barrier()
		if n.ID == 1 {
			n.WriteU32(r.Base, 7)
		}
		n.Barrier()
		if n.ID == 3 {
			_ = n.ReadU32(r.Base)
		}
		n.Barrier()
		if n.ID == 0 {
			n.WriteU32(r.Base+32, 9)
		}
		n.Barrier()
		if n.ID == 2 {
			n.WriteU32(r.Base+36, 1) // 3-hop write migration
		}
		n.Barrier()
	})
	if err := pr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A coherent line that is a copy of its block rather than the home
	// image is a violation whatever its tag: a store to it would miss memory.
	l := m.Nodes[1].Line(m.AS.Block(r.Base))
	l.Data = append([]byte(nil), l.Data...)
	if err := pr.CheckInvariants(); err == nil {
		t.Fatal("audit accepted a coherent line holding a copy of its block")
	}
}

// Property: any barrier-separated random single-writer access pattern
// leaves the directory consistent with the tags, and every read observes
// the latest barrier-ordered write (sequential consistency at phase
// granularity).  The same seed that generates the script picks the
// schedule's tie-break, so each script also runs under its own interleaving.
func TestStacheSequentialConsistencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		const p, words, phases = 4, 16, 8
		x := seed
		next := func(mod int) int {
			x = x*6364136223846793005 + 1442695040888963407
			return int((x >> 33) % uint64(mod))
		}
		m := tempest.New(p, 32, cost.Default())
		r := m.AS.Alloc("d", words*4, memsys.KindCoherent, memsys.Interleaved)
		pr := New()
		m.SetProtocol(pr)
		m.Freeze()
		m.SchedSeed = seed

		// Script: each phase picks one writer per word (may be none)
		// and a value; all nodes read all words in the next phase.
		type wr struct{ node, word, val int }
		var script [phases][]wr
		model := make([]int, words)
		modelAt := make([][]int, phases+1)
		modelAt[0] = append([]int(nil), model...)
		for ph := 0; ph < phases; ph++ {
			used := map[int]bool{}
			for k := 0; k < 4; k++ {
				w := next(words)
				if used[w] {
					continue
				}
				used[w] = true
				n := next(p)
				v := next(1 << 20)
				script[ph] = append(script[ph], wr{n, w, v})
				model[w] = v
			}
			modelAt[ph+1] = append([]int(nil), model...)
		}

		ok := true
		m.Run(func(n *tempest.Node) {
			for ph := 0; ph < phases; ph++ {
				for _, s := range script[ph] {
					if s.node == n.ID {
						n.WriteU32(r.Base+memsys.Addr(s.word*4), uint32(s.val))
					}
				}
				n.Barrier()
				// Every node verifies the phase's final state.
				for w := 0; w < words; w++ {
					if got := n.ReadU32(r.Base + memsys.Addr(w*4)); got != uint32(modelAt[ph+1][w]) {
						ok = false
					}
				}
				n.Barrier()
			}
		})
		if !ok {
			return false
		}
		return pr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestInvariantsAtWideMachines re-runs the directory audit on machines
// whose sharer sets spill past the inline 64-bit word (P=65 and P=256):
// all nodes share a block, a high-ID owner (> 63) takes it exclusive —
// a cross-word invalidation fan-out — and the sharing re-forms through
// a 3-hop recall from the spilled owner.
func TestInvariantsAtWideMachines(t *testing.T) {
	for _, p := range []int{65, 256} {
		m, r, pr := newMachine(t, p, 8)
		writer := p - 1 // lives in the spill words
		ok := true
		m.Run(func(n *tempest.Node) {
			_ = n.ReadU32(r.Base)
			n.Barrier()
			if n.ID == writer {
				n.WriteU32(r.Base, 1234)
			}
			n.Barrier()
			if n.ReadU32(r.Base) != 1234 { // 3-hop recall from the spilled owner
				ok = false
			}
			n.Barrier()
		})
		if !ok {
			t.Fatalf("P=%d: read did not observe the spilled owner's write", p)
		}
		if err := pr.CheckInvariants(); err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
	}
}
