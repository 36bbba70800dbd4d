package fault

import (
	"fmt"
	"testing"
)

// TestLossDeterministic pins the determinism contract: the fate sequence
// drawn by a sender is a pure function of (seed, sender, draw index),
// independent of what other senders draw in between.
func TestLossDeterministic(t *testing.T) {
	plan := Plan{Seed: 42, DropPerMil: 100, DupPerMil: 100, ReorderPerMil: 100}
	a := NewInjector(4, plan)
	b := NewInjector(4, plan)
	var seqA, seqB []Delivery
	for i := 0; i < 200; i++ {
		seqA = append(seqA, a.Classify(1))
	}
	for i := 0; i < 200; i++ {
		// Interleave other senders' draws; sender 1's stream must not care.
		b.Classify(0)
		seqB = append(seqB, b.Classify(1))
		b.Classify(3)
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("draw %d: %v vs %v under interleaving", i, seqA[i], seqB[i])
		}
	}
	if a.nodes[1].tally != b.nodes[1].tally {
		t.Fatalf("sender tallies diverged: %v vs %v", a.nodes[1].tally, b.nodes[1].tally)
	}
}

// TestLossSeedsDiffer checks different seeds inject different patterns.
func TestLossSeedsDiffer(t *testing.T) {
	mk := func(seed uint64) []Delivery {
		in := NewInjector(1, Plan{Seed: seed, DropPerMil: 300})
		var seq []Delivery
		for i := 0; i < 64; i++ {
			seq = append(seq, in.Classify(0))
		}
		return seq
	}
	if a, b := mk(1), mk(2); fmt.Sprint(a) == fmt.Sprint(b) {
		t.Fatal("seeds 1 and 2 injected identical fault patterns")
	}
}

// TestFateTallyMatchesDraws checks every non-clean classification is
// tallied — the three fates being disjoint ranges of one roll — and the
// tally sums across senders.
func TestFateTallyMatchesDraws(t *testing.T) {
	in := NewInjector(3, Plan{Seed: 7, DropPerMil: 150, DupPerMil: 150, ReorderPerMil: 150})
	var want Tally
	for i := 0; i < 300; i++ {
		switch in.Classify(i % 3) {
		case Dropped:
			want.Dropped++
		case Duplicated:
			want.Duplicated++
		case Reordered:
			want.Reordered++
		}
	}
	if got := in.Tally(); got != want {
		t.Fatalf("tally %v, want %v (from draws)", got, want)
	}
	if want.Dropped == 0 || want.Duplicated == 0 || want.Reordered == 0 {
		t.Fatalf("450‰ fault rate over 300 draws injected %v; stream is broken", want)
	}
	var sum Tally
	for i := range in.nodes {
		sum.Add(in.nodes[i].tally)
	}
	if sum != want {
		t.Fatalf("per-sender tallies sum to %v, want %v", sum, want)
	}
}

// TestLossZeroConfigLosesNothing checks a plan without delivery faults
// never classifies, tallies or draws anything.
func TestLossZeroConfigLosesNothing(t *testing.T) {
	in := NewInjector(2, Plan{Seed: 9})
	fresh := NewInjector(2, Plan{Seed: 9})
	for i := 0; i < 100; i++ {
		if d := in.Classify(i % 2); d != Delivered {
			t.Fatalf("zero config classified %v", d)
		}
	}
	if got := in.Tally(); got != (Tally{}) {
		t.Fatalf("zero config tallied %v", got)
	}
	if in.nodes[0].rng != fresh.nodes[0].rng || in.nodes[1].rng != fresh.nodes[1].rng {
		t.Fatal("zero config advanced a stream")
	}
}

// TestDeliveryString covers the fate names used in reports.
func TestDeliveryString(t *testing.T) {
	for d, want := range map[Delivery]string{
		Delivered: "delivered", Dropped: "dropped",
		Duplicated: "duplicated", Reordered: "reordered", Delivery(9): "Delivery(9)",
	} {
		if d.String() != want {
			t.Errorf("Delivery(%d).String() = %q, want %q", uint8(d), d.String(), want)
		}
	}
}

// TestOneStreamReproducesBothGenerators is the single-stream argument as a
// test.  Before the merge a run had two generators — the injector's, and the
// interconnect's loss model with a copy of the same mixing function and the
// same seeding.  A plan with delivery faults only must draw, fate for fate,
// what the loss model drew for the same seed, and a plan with injector rates
// only what the injector drew; the expected strings were printed by the
// parent commit's two generators (node 1 of 4, node 0 drawing in between).
func TestOneStreamReproducesBothGenerators(t *testing.T) {
	const (
		wantFates  = "0000000301302000200003030002001000003012000020203030002000003023"
		wantFaults = "002112840d0514052600802124900019"
	)
	in := NewInjector(4, Plan{Seed: 42, DropPerMil: 100, DupPerMil: 100, ReorderPerMil: 100})
	fates := ""
	for i := 0; i < len(wantFates); i++ {
		fates += fmt.Sprint(int(in.Classify(1)))
		in.Classify(0)
		// The injector's own decisions are off in this plan: no draw.
		in.CorruptTransfer(1)
		in.TransientTimeout(1)
	}
	if fates != wantFates {
		t.Errorf("delivery-only plan drew\n  %s, the loss model drew\n  %s", fates, wantFates)
	}
	if got, want := in.nodes[1].tally, (Tally{Dropped: 3, Duplicated: 8, Reordered: 9}); got != want {
		t.Errorf("delivery-only tally %+v, want %+v", got, want)
	}

	in = NewInjector(4, Plan{Seed: 42, CorruptPerMil: 300, TransientPerMil: 300,
		SpikePerMil: 200, SpikeCycles: 7, StallPerMil: 200, StallCycles: 9})
	faults := ""
	for i := 0; i < len(wantFaults); i++ {
		b := 0
		if in.CorruptTransfer(1) {
			b |= 1
		}
		if in.TransientTimeout(1) {
			b |= 2
		}
		if _, ok := in.OccupancySpike(1); ok {
			b |= 4
		}
		if _, ok := in.Stall(1); ok {
			b |= 8
		}
		in.CorruptTransfer(0)
		in.Classify(1) // delivery is reliable in this plan: no draw
		faults += fmt.Sprintf("%x", b)
	}
	if faults != wantFaults {
		t.Errorf("rates-only plan drew\n  %s, the injector drew\n  %s", faults, wantFaults)
	}
	if got, want := in.nodes[1].tally, (Tally{Corruptions: 10, Timeouts: 6, Spikes: 7, Stalls: 5}); got != want {
		t.Errorf("rates-only tally %+v, want %+v", got, want)
	}
}
