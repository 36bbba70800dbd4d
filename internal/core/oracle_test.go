package core

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"lcm/internal/cost"
	"lcm/internal/memsys"
	"lcm/internal/tempest"
)

// This file checks LCM against an executable model of C** semantics (the
// "oracle"): for randomly generated phased programs, every read observed
// during execution and every committed value after reconciliation must
// match what the language definition prescribes —
//
//   - a read sees the value the reading invocation itself wrote earlier,
//     if any, and otherwise the pre-phase global value, never another
//     invocation's in-flight write;
//   - after ReconcileCopies, a written element holds the written value
//     (writes are kept disjoint across nodes, so the surviving value is
//     deterministic);
//   - disjoint writes never report conflicts.
//
// The generated programs interleave invocations, flushes and phases across
// nodes and elements arbitrarily, so this exercises mark/flush/commit
// paths far beyond the hand-written scenarios.

// oracleOp is one operation of a node's script.
type oracleOp struct {
	write bool
	elem  int
	val   uint32
	// endInv flushes after this op (ends the invocation).
	endInv bool
}

// oracleProgram is a full machine script.
type oracleProgram struct {
	phases [][][]oracleOp // phases[ph][node] = ops
	elems  int
}

// genProgram derives a deterministic random program from a seed using an
// LCG (testing/quick supplies the seeds).
func genProgram(seed uint64, p, elems, phases, opsPerPhase int) oracleProgram {
	x := seed
	next := func(mod int) int {
		x = x*6364136223846793005 + 1442695040888963407
		return int((x >> 33) % uint64(mod))
	}
	prog := oracleProgram{elems: elems}
	for ph := 0; ph < phases; ph++ {
		// Partition elements among nodes so writes are disjoint across
		// nodes, and give each element one value for the whole phase:
		// re-writes from later invocations of the same node then carry
		// the same value, which C** tolerates (identical modifications
		// are not a conflict), keeping the expected conflict count at
		// zero.  A *different* value from a later invocation would be a
		// genuine C** conflict — that behaviour is covered separately
		// by TestConflictingWritesOneSurvives.
		owner := make([]int, elems)
		phaseVal := make([]uint32, elems)
		for e := range owner {
			owner[e] = next(p)
			phaseVal[e] = uint32(next(1<<30) + 1)
		}
		nodeOps := make([][]oracleOp, p)
		for nd := 0; nd < p; nd++ {
			for k := 0; k < opsPerPhase; k++ {
				e := next(elems)
				if owner[e] == nd && next(2) == 0 {
					nodeOps[nd] = append(nodeOps[nd], oracleOp{
						write: true, elem: e,
						val:    phaseVal[e],
						endInv: next(3) == 0,
					})
				} else {
					nodeOps[nd] = append(nodeOps[nd], oracleOp{
						elem:   e,
						endInv: next(4) == 0,
					})
				}
			}
		}
		prog.phases = append(prog.phases, nodeOps)
	}
	return prog
}

// runOracle executes the program under the given variant and compares
// every observation against the model.  It returns an error describing the
// first divergence.
func runOracle(v Variant, prog oracleProgram) error {
	m := tempest.New(4, 32, cost.Default())
	r := m.AS.Alloc("data", uint64(prog.elems)*4, memsys.KindLCM, memsys.Interleaved)
	pr := New(v)
	m.SetProtocol(pr)
	m.Freeze()

	committed := make([]uint32, prog.elems) // model's global state
	var mu sync.Mutex
	var failures []string
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	m.Run(func(n *tempest.Node) {
		for ph := range prog.phases {
			ops := prog.phases[ph][n.ID]
			invWrites := map[int]uint32{} // this invocation's own writes
			for _, op := range ops {
				a := r.Base + memsys.Addr(op.elem*4)
				if op.write {
					n.WriteU32(a, op.val)
					invWrites[op.elem] = op.val
				} else {
					got := n.ReadU32(a)
					want, ok := invWrites[op.elem]
					if !ok {
						want = committed[op.elem] // pre-phase value
					}
					if got != want {
						fail("phase %d node %d read elem %d = %d, want %d",
							ph, n.ID, op.elem, got, want)
					}
				}
				if op.endInv {
					n.FlushCopies()
					invWrites = map[int]uint32{}
				}
			}
			n.ReconcileCopies()
			// Commit the model between barriers: node 0 folds this
			// phase's (disjoint) writes into the committed state.
			if n.ID == 0 {
				for nd := 0; nd < m.P; nd++ {
					for _, op := range prog.phases[ph][nd] {
						if op.write {
							committed[op.elem] = op.val
						}
					}
				}
			}
			n.Barrier()
		}
	})

	if len(failures) > 0 {
		return fmt.Errorf("%d divergences, first: %s", len(failures), failures[0])
	}
	// Final global state must equal the model exactly.
	for e := 0; e < prog.elems; e++ {
		a := r.Base + memsys.Addr(e*4)
		b := m.AS.Block(a)
		got := uint32(m.AS.HomeData(b)[a%32]) |
			uint32(m.AS.HomeData(b)[a%32+1])<<8 |
			uint32(m.AS.HomeData(b)[a%32+2])<<16 |
			uint32(m.AS.HomeData(b)[a%32+3])<<24
		if got != committed[e] {
			return fmt.Errorf("final elem %d = %d, want %d", e, got, committed[e])
		}
	}
	if c := m.Shared.WriteConflicts; c != 0 {
		return fmt.Errorf("disjoint writes reported %d conflicts", c)
	}
	return nil
}

func TestLCMMatchesCStarOracle(t *testing.T) {
	for _, v := range []Variant{SCC, MCC} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			f := func(seed uint64) bool {
				prog := genProgram(seed, 4, 48, 5, 24)
				if err := runOracle(v, prog); err != nil {
					t.Logf("seed %d: %v", seed, err)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLCMOracleLongProgram runs one long random program as a soak test.
func TestLCMOracleLongProgram(t *testing.T) {
	for _, v := range []Variant{SCC, MCC} {
		prog := genProgram(12345, 4, 96, 40, 80)
		if err := runOracle(v, prog); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
	}
}
