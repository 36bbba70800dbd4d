package net_test

import (
	"errors"
	"testing"

	"lcm/internal/cost"
	"lcm/internal/fault"
	"lcm/internal/net"
)

// TestModelsCarryLoss checks both interconnect models under the
// retransmission layer: without loss everything is delivered and the network
// keeps its order-freedom; with a certain drop attached every attempt draws
// one fate and the exchange gives up at the retry budget; and pricing — the
// exchange that failed, each timeout window it waited out — never draws one.
func TestModelsCarryLoss(t *testing.T) {
	c := cost.Default()
	for _, model := range []string{"uniform", "fattree"} {
		nw, err := net.New(net.Config{Model: model}, 8, c)
		if err != nil {
			t.Fatal(err)
		}
		orderFree := nw.OrderFree()
		nw.SetFaults(fault.NewInjector(8, fault.Plan{Seed: 3, CorruptPerMil: 1000}), 8)
		var ctr net.Counters
		nw.RoundTrip(0, 1, 32, 0, &ctr)
		if ctr.Retransmits != 0 || nw.OrderFree() != orderFree {
			t.Errorf("%s under a plan without delivery faults: %d retransmissions, order-free %v",
				model, ctr.Retransmits, nw.OrderFree())
		}
		f := fault.NewInjector(8, fault.Plan{Seed: 3, DropPerMil: 1000})
		nw.SetFaults(f, 8)
		if nw.Name() != model || nw.OrderFree() {
			t.Errorf("%s made lossy is named %q, order-free %v", model, nw.Name(), nw.OrderFree())
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
