package net

import "testing"

// TestLossDeterministic pins the determinism contract: the fate sequence
// drawn by a sender is a pure function of (seed, sender, draw index),
// independent of what other senders draw in between.
func TestLossDeterministic(t *testing.T) {
	cfg := LossConfig{Seed: 42, DropPerMil: 100, DupPerMil: 100, ReorderPerMil: 100}
	a := NewLoss(cfg, 4)
	b := NewLoss(cfg, 4)
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
	if a.SenderTally(1) != b.SenderTally(1) {
		t.Fatalf("sender tallies diverged: %v vs %v", a.SenderTally(1), b.SenderTally(1))
	}
}

// TestLossSeedsDiffer checks different seeds inject different patterns.
func TestLossSeedsDiffer(t *testing.T) {
	mk := func(seed uint64) []Delivery {
		l := NewLoss(LossConfig{Seed: seed, DropPerMil: 300}, 1)
		var seq []Delivery
		for i := 0; i < 64; i++ {
			seq = append(seq, l.Classify(0))
		}
		return seq
	}
	a, b := mk(1), mk(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 injected identical fault patterns")
	}
}

// TestLossTallyMatchesDraws checks every non-clean classification is
// tallied, and the tally sums across senders.
func TestLossTallyMatchesDraws(t *testing.T) {
	l := NewLoss(LossConfig{Seed: 7, DropPerMil: 150, DupPerMil: 150, ReorderPerMil: 150}, 3)
	var want LossTally
	for i := 0; i < 300; i++ {
		switch l.Classify(i % 3) {
		case Dropped:
			want.Dropped++
		case Duplicated:
			want.Duplicated++
		case Reordered:
			want.Reordered++
		}
	}
	if got := l.Tally(); got != want {
		t.Fatalf("tally %v, want %v (from draws)", got, want)
	}
	if want.Total() == 0 {
		t.Fatal("450‰ fault rate injected nothing in 300 draws; stream is broken")
	}
	sum := l.SenderTally(0)
	sum.Add(l.SenderTally(1))
	sum.Add(l.SenderTally(2))
	if sum != want {
		t.Fatalf("per-sender tallies sum to %v, want %v", sum, want)
	}
}

// TestLossZeroConfigLosesNothing checks the zero config and the no-loss
// fast path never classify or tally anything.
func TestLossZeroConfigLosesNothing(t *testing.T) {
	l := NewLoss(LossConfig{Seed: 9}, 2)
	for i := 0; i < 100; i++ {
		if d := l.Classify(i % 2); d != Delivered {
			t.Fatalf("zero config classified %v", d)
		}
	}
	if got := l.Tally(); got != (LossTally{}) {
		t.Fatalf("zero config tallied %v", got)
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
