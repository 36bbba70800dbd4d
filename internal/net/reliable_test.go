package net_test

import (
	"errors"
	"testing"

	"lcm/internal/cost"
	"lcm/internal/fault"
	"lcm/internal/net"
	"lcm/internal/tempest"
)

// TestModelsCarryLoss checks both interconnect models under the
// retransmission layer tempest.Machine.AttachLoss interposes, which holds
// the loss model itself: without loss everything is delivered; with a
// certain drop attached every attempt draws one fate and the exchange gives
// up at the retry budget; and the models' own pricing — the exchange that
// failed, each timeout window it waited out — never draws one.
func TestModelsCarryLoss(t *testing.T) {
	c := cost.Default()
	for _, model := range []string{"uniform", "fattree"} {
		nw, err := net.New(net.Config{Model: model}, 8, c)
		if err != nil {
			t.Fatal(err)
		}
		m := tempest.New(8, 32, c)
		m.SetNetwork(nw)
		var ctr net.Counters
		m.Net.RoundTrip(0, 1, 32, 0, &ctr)
		if ctr.Retransmits != 0 {
			t.Errorf("%s without loss: %d retransmissions", model, ctr.Retransmits)
		}
		l := m.AttachLoss(net.LossConfig{Seed: 3, DropPerMil: 1000})
		if m.Net.Name() != model {
			t.Errorf("%s under the retransmission layer is named %q", model, m.Net.Name())
		}
		func() {
			defer func() {
				if err, _ := recover().(error); !errors.Is(err, fault.ErrRetryExhausted) {
					t.Errorf("%s with certain drop: exchange ended with %v", model, err)
				}
			}()
			m.Net.RoundTrip(0, 1, 32, 0, &ctr)
		}()
		budget := int64(m.Fault.RetryBudget())
		if got := l.Tally(); got.Dropped != budget+1 || got.Total() != got.Dropped {
			t.Errorf("%s: loss tally %v, want %d drops (one draw per attempt, none by pricing)", model, got, budget+1)
		}
		if ctr.Retransmits != budget {
			t.Errorf("%s: %d retransmissions, want %d", model, ctr.Retransmits, budget)
		}
	}
}
