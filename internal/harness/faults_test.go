package harness

import (
	"bytes"
	"strings"
	"testing"

	"lcm/internal/workloads"
)

// TestChaosCampaign runs the full chaos matrix at reduced scale: every
// workload x every memory system under the default seeded plans, plus the
// unrecoverable-failure scenario.  RunChaos itself asserts bit-identical
// answers, intact invariants, and exact recovery accounting; the test only
// requires that no assertion failed.
func TestChaosCampaign(t *testing.T) {
	var buf bytes.Buffer
	s := New(&buf)
	s.Cfg = workloads.Config{P: 8}
	s.Scale = 16
	if err := s.RunChaos(DefaultChaosPlans()); err != nil {
		t.Fatalf("chaos campaign failed:\n%v\n\noutput:\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"Stencil", "Adaptive", "Threshold", "Unstructured",
		"light", "heavy", "kill scenario"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chaos output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "FAIL") {
		t.Fatalf("chaos output reports failure:\n%s", out)
	}
}

// TestRecoveryMatrix runs the crash-recovery matrix at reduced scale:
// every workload x memory system under the default kill/drop/duplicate
// plans with two seeds.  RunRecovery itself asserts answer identity
// against the fault-free oracle, bit-identical replay, and exact
// recovery accounting; the test only requires that no assertion failed.
func TestRecoveryMatrix(t *testing.T) {
	// P=4 is the configuration TestCampaignGoldens pins line for line.
	for _, p := range []int{1, 8} {
		if testing.Short() && p != 1 {
			continue
		}
		var buf bytes.Buffer
		s := New(&buf)
		s.Cfg = workloads.Config{P: p}
		s.Scale = 16
		if err := s.RunRecovery(DefaultRecoveryPlans(), []uint64{1, 2}); err != nil {
			t.Fatalf("P=%d recovery matrix failed:\n%v\n\noutput:\n%s", p, err, buf.String())
		}
		out := buf.String()
		for _, want := range []string{"Stencil", "Adaptive", "Threshold", "Unstructured",
			"kill-at-barrier", "kill-mid-epoch", "kill-rehome", "drop-1pct", "dup-storm"} {
			if !strings.Contains(out, want) {
				t.Fatalf("P=%d recovery output missing %q:\n%s", p, want, out)
			}
		}
		if strings.Contains(out, "FAIL") {
			t.Fatalf("P=%d recovery output reports failure:\n%s", p, out)
		}
	}
}
