package fault

import (
	"strings"
	"testing"
)

// TestKillSchedule pins the multi-kill trigger: node KillNode dies at
// every multiple of KillAfter access faults until KillCount deaths, and
// nobody else ever does.
func TestKillSchedule(t *testing.T) {
	in := NewInjector(4, Plan{Seed: 1, KillNode: 2, KillAfter: 3, KillCount: 2})
	var killsAt []int
	for i := 1; i <= 20; i++ {
		if in.AccessFault(2) {
			killsAt = append(killsAt, i)
		}
		if in.AccessFault(1) {
			t.Fatalf("fault %d: kill triggered on node 1, plan targets node 2", i)
		}
	}
	if len(killsAt) != 2 || killsAt[0] != 3 || killsAt[1] != 6 {
		t.Fatalf("kills at faults %v, want [3 6]", killsAt)
	}
	if got := in.Tally().Kills; got != 2 {
		t.Fatalf("tally.Kills = %d, want 2", got)
	}
}

// TestKillAtBarrier pins the barrier trigger: exactly one kill, at the
// KillAtBarrier-th arrival, sharing the KillCount budget with the access
// trigger.
func TestKillAtBarrier(t *testing.T) {
	in := NewInjector(2, Plan{Seed: 1, KillNode: 1, KillAtBarrier: 2})
	var killsAt []int
	for i := 1; i <= 5; i++ {
		if in.BarrierArrival(1) {
			killsAt = append(killsAt, i)
		}
		if in.BarrierArrival(0) {
			t.Fatalf("barrier %d: kill triggered on node 0, plan targets node 1", i)
		}
	}
	if len(killsAt) != 1 || killsAt[0] != 2 {
		t.Fatalf("barrier kills at %v, want [2]", killsAt)
	}

	// The two triggers share KillCount: a barrier kill spends the budget
	// an access kill would have used.
	in = NewInjector(2, Plan{Seed: 1, KillNode: 1, KillAfter: 1, KillAtBarrier: 1, KillCount: 1})
	if !in.BarrierArrival(1) {
		t.Fatal("first barrier arrival did not kill")
	}
	if in.AccessFault(1) {
		t.Fatal("access kill triggered after KillCount was spent at the barrier")
	}
}

// TestKillDefaults pins the defaulting: configuring any kill trigger
// implies KillCount 1, and RestartBudget defaults to 4.
func TestKillDefaults(t *testing.T) {
	in := NewInjector(2, Plan{KillNode: 1, KillAfter: 5})
	if got := in.Plan().KillCount; got != 1 {
		t.Errorf("KillCount defaulted to %d, want 1", got)
	}
	if got := in.RestartBudget(); got != 4 {
		t.Errorf("RestartBudget defaulted to %d, want 4", got)
	}
	if in := NewInjector(2, Plan{}); in.Plan().KillCount != 0 {
		t.Errorf("plan with no kill trigger got KillCount %d, want 0", in.Plan().KillCount)
	}
}

// TestKillPlanString covers the plan rendering used in reports.
func TestKillPlanString(t *testing.T) {
	p := Plan{Seed: 1, KillNode: 1, KillAfter: 3, KillAtBarrier: 2, Recover: true,
		KillCount: 4, RestartBudget: 2}
	s := p.String()
	for _, want := range []string{"kill=n1@3", "kill=n1@bar2", "recover(x4,budget=2)"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan string %q missing %q", s, want)
		}
	}
}
