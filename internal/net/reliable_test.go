package net_test

import (
	"errors"
	"testing"

	"lcm/internal/cost"
	"lcm/internal/fault"
	"lcm/internal/net"
)

// TestModelsCarryLoss checks both interconnect models under the
// retransmission layer: under a plan without delivery faults nothing is
// re-sent; with a certain drop attached the network keeps its name, every
// attempt draws one fate and the exchange gives up at the retry budget; and
// pricing — the exchange that failed, each timeout window it waited out —
// never draws one.
func TestModelsCarryLoss(t *testing.T) {
	c := cost.Default()
	for _, model := range []string{"uniform", "fattree"} {
		nw, err := net.New(net.Config{Model: model}, 8, c)
		if err != nil {
			t.Fatal(err)
		}
		nw.SetFaults(fault.NewInjector(8, fault.Plan{Seed: 3, CorruptPerMil: 1000}), 8)
		var ctr net.Counters
		nw.RoundTrip(0, 1, 32, 0, &ctr)
		if ctr.Retransmits != 0 {
			t.Errorf("%s under a plan without delivery faults: %d retransmissions", model, ctr.Retransmits)
		}
		f := fault.NewInjector(8, fault.Plan{Seed: 3, DropPerMil: 1000})
		nw.SetFaults(f, 8)
		if nw.Name() != model {
			t.Errorf("%s made lossy is named %q", model, nw.Name())
		}
		func() {
			defer func() {
				if err, _ := recover().(error); !errors.Is(err, fault.ErrRetryExhausted) {
					t.Errorf("%s with certain drop: exchange ended with %v", model, err)
				}
			}()
			nw.RoundTrip(0, 1, 32, 0, &ctr)
		}()
		budget := int64(f.RetryBudget())
		if got := f.Tally(); got.Dropped != budget+1 || got.Total() != got.Dropped {
			t.Errorf("%s: fault tally %v, want %d drops (one draw per attempt, none by pricing)", model, got, budget+1)
		}
		if ctr.Retransmits != budget {
			t.Errorf("%s: %d retransmissions, want %d", model, ctr.Retransmits, budget)
		}
	}
}
