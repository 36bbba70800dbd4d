package tempest

import (
	"errors"
	"testing"

	"lcm/internal/cost"
	"lcm/internal/fault"
	"lcm/internal/net"
)

// lossSeed brute-forces a seed whose first draws for sender 0 under plan
// match the wanted fate pattern, so the closed-form charge tests can
// script the loss model through its real randomness.
func lossSeed(t *testing.T, plan fault.Plan, want []fault.Delivery) uint64 {
	t.Helper()
	for seed := uint64(1); seed < 1_000_000; seed++ {
		plan.Seed = seed
		f := fault.NewInjector(1, plan)
		ok := true
		for _, w := range want {
			if f.Classify(0) != w {
				ok = false
				break
			}
		}
		if ok {
			return seed
		}
	}
	t.Fatalf("no seed under 1e6 yields %v at %v", want, plan)
	return 0
}

// lossyNet makes nw deliver as unreliably as plan says.
func lossyNet(nw *net.Network, plan fault.Plan, p int) (*net.Network, *fault.Injector) {
	f := fault.NewInjector(p, plan)
	nw.SetFaults(f, p)
	return nw, f
}

// TestRetransDropCostUniform pins the closed-form recovery charge on the
// uniform model: a message dropped once and then delivered costs exactly
// the clean exchange plus one timeout window (= one wire round trip under
// the uniform model) plus the first backoff penalty — i.e. 2x wire time +
// 1 backoff + the payload term.
func TestRetransDropCostUniform(t *testing.T) {
	c := cost.Default()
	plan := fault.Plan{DropPerMil: 500}
	plan.Seed = lossSeed(t, plan, []fault.Delivery{fault.Dropped, fault.Delivered})
	r, f := lossyNet(net.NewUniform(c, net.DefaultHeaderBytes), plan, 2)

	var ctr net.Counters
	got := r.RoundTrip(0, 1, 32, 0, &ctr)
	want := c.RemoteRoundTrip + // timeout window of the lost send
		f.Backoff(1) + // first retry backoff
		c.RemoteRoundTrip + 32*c.PerByte // the surviving exchange
	if got != want {
		t.Errorf("dropped-once round trip charged %d, want %d (2x wire + backoff + payload)", got, want)
	}
	if ctr.Retransmits != 1 {
		t.Errorf("Retransmits = %d, want 1", ctr.Retransmits)
	}
	if wantLost := c.RemoteRoundTrip + f.Backoff(1); ctr.RetransCycles != wantLost {
		t.Errorf("RetransCycles = %d, want %d", ctr.RetransCycles, wantLost)
	}
	// The re-send shows up in the message account exactly as a timeout
	// followed by a clean round trip would.
	ref := net.NewUniform(c, net.DefaultHeaderBytes)
	var refCtr net.Counters
	ref.Timeout(0, 1, 0, &refCtr)
	ref.RoundTrip(0, 1, 32, 0, &refCtr)
	refCtr.Retransmits, refCtr.RetransCycles = ctr.Retransmits, ctr.RetransCycles
	if ctr != refCtr {
		t.Errorf("message account:\n got  %+v\n want timeout+roundtrip composition %+v", ctr, refCtr)
	}
}

// TestRetransDropCostFatTree pins the same identity on the queueing
// fat-tree model by composition: the lossy exchange must charge exactly
// what a fresh fat tree charges for timeout-then-roundtrip at the same
// virtual times, plus the backoff penalty.
func TestRetransDropCostFatTree(t *testing.T) {
	plan := fault.Plan{DropPerMil: 500}
	plan.Seed = lossSeed(t, plan, []fault.Delivery{fault.Dropped, fault.Delivered})
	r, f := lossyNet(net.NewFatTree(net.Config{Model: "fattree"}, 8), plan, 8)

	const now = 12345
	var ctr net.Counters
	got := r.RoundTrip(0, 5, 32, now, &ctr)

	ref := net.NewFatTree(net.Config{Model: "fattree"}, 8)
	var refCtr net.Counters
	timeout := ref.Timeout(0, 5, now, &refCtr)
	want := timeout + f.Backoff(1) + ref.RoundTrip(0, 5, 32, now+timeout+f.Backoff(1), &refCtr)
	if got != want {
		t.Errorf("dropped-once fat-tree round trip charged %d, want %d (timeout + backoff + delayed retry)", got, want)
	}
	if ctr.Retransmits != 1 || ctr.RetransCycles != timeout+f.Backoff(1) {
		t.Errorf("retransmission account %d/%d, want 1/%d", ctr.Retransmits, ctr.RetransCycles, timeout+f.Backoff(1))
	}
}

// TestRetransDuplicateIdempotent checks a duplicated delivery costs
// exactly the clean exchange — the receiver discards the stale copy at
// zero protocol cost — and is counted, not retried.
func TestRetransDuplicateIdempotent(t *testing.T) {
	c := cost.Default()
	plan := fault.Plan{DupPerMil: 500}
	plan.Seed = lossSeed(t, plan, []fault.Delivery{fault.Duplicated})
	r, f := lossyNet(net.NewUniform(c, net.DefaultHeaderBytes), plan, 2)

	var ctr net.Counters
	got := r.RoundTrip(0, 1, 32, 0, &ctr)
	if want := c.RemoteRoundTrip + 32*c.PerByte; got != want {
		t.Errorf("duplicated round trip charged %d, want clean %d", got, want)
	}
	if ctr.DupDelivered != 1 || ctr.Retransmits != 0 {
		t.Errorf("dup account: DupDelivered=%d Retransmits=%d, want 1/0", ctr.DupDelivered, ctr.Retransmits)
	}
	if f.Tally().Duplicated != 1 {
		t.Errorf("loss tally %v, want one duplicate", f.Tally())
	}
}

// TestRetransReorderHeld checks a reordered delivery is held (counted)
// but charges the clean exchange: resequencing resolves within the same
// virtual-time exchange.
func TestRetransReorderHeld(t *testing.T) {
	c := cost.Default()
	plan := fault.Plan{ReorderPerMil: 500}
	plan.Seed = lossSeed(t, plan, []fault.Delivery{fault.Reordered})
	r, _ := lossyNet(net.NewUniform(c, net.DefaultHeaderBytes), plan, 2)

	var ctr net.Counters
	if got, want := r.RoundTrip(0, 1, 0, 0, &ctr), c.RemoteRoundTrip; got != want {
		t.Errorf("reordered round trip charged %d, want clean %d", got, want)
	}
	if ctr.ReorderHeld != 1 {
		t.Errorf("ReorderHeld = %d, want 1", ctr.ReorderHeld)
	}
}

// TestRetransExhaustion checks a message dropped past the retry budget
// panics with a RetryExhaustedError that errors.Is-matches
// fault.ErrRetryExhausted.
func TestRetransExhaustion(t *testing.T) {
	c := cost.Default()
	r, f := lossyNet(net.NewUniform(c, net.DefaultHeaderBytes),
		fault.Plan{Seed: 1, DropPerMil: 1000}, 2)

	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("certain drop did not exhaust the retry budget")
		}
		err, ok := v.(error)
		if !ok {
			t.Fatalf("panic value %v is not an error", v)
		}
		if !errors.Is(err, fault.ErrRetryExhausted) {
			t.Errorf("panic %v does not match fault.ErrRetryExhausted", err)
		}
		var re *fault.RetryExhaustedError
		if !errors.As(err, &re) {
			t.Fatalf("panic %v is not a *fault.RetryExhaustedError", err)
		}
		if re.Node != 0 || re.Op != "retransmission" || re.Attempts != f.RetryBudget()+1 {
			t.Errorf("exhaustion detail %+v, want node 0, op retransmission, attempts %d", re, f.RetryBudget()+1)
		}
	}()
	var ctr net.Counters
	r.RoundTrip(0, 1, 32, 0, &ctr)
}

// TestReliableNetPassThrough checks a lossy network's non-exchange surface:
// barriers and timeouts are never classified, and the network keeps its
// model's name.
func TestReliableNetPassThrough(t *testing.T) {
	c := cost.Default()
	r, f := lossyNet(net.NewUniform(c, net.DefaultHeaderBytes),
		fault.Plan{Seed: 1, DropPerMil: 1000}, 2)
	var ctr net.Counters
	if got, want := r.Timeout(0, 1, 0, &ctr), c.RemoteRoundTrip; got != want {
		t.Errorf("Timeout charged %d, want %d", got, want)
	}
	r.Barrier(0, &ctr)
	if f.Tally().Total() != 0 {
		t.Errorf("pass-through paths drew a message fate: %v", f.Tally())
	}
	if r.Name() != "uniform" {
		t.Errorf("Name = %q", r.Name())
	}
}
