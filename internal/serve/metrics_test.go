package serve

import (
	"strings"
	"testing"

	"lcm/internal/sched"
	"lcm/internal/workloads"
)

type fakeCollector struct {
	name string
	ms   []Metric
}

func (f fakeCollector) Name() string { return f.name }
func (f fakeCollector) Collect(emit func(Metric)) {
	for _, m := range f.ms {
		emit(m)
	}
}

func TestRegistryPrometheusRendering(t *testing.T) {
	r := NewRegistry()
	r.Register(
		fakeCollector{"a", []Metric{
			{"x_total", "Xes seen.", "counter", [][2]string{{"kind", "plain"}}, 3},
			{"y_depth", "Y depth.", "gauge", nil, 0.5},
		}},
		fakeCollector{"b", []Metric{
			// Same metric name from a second collector: no second header.
			{"x_total", "Xes seen.", "counter", [][2]string{{"kind", `quo"te` + "\n" + `back\slash`}}, 4},
			// Values past 1e6 must stay plain integers, not 7.201394e+06:
			// scrapes are cross-checked textually against BENCH JSON.
			{"x_total", "Xes seen.", "counter", [][2]string{{"kind", "big"}}, 7201394},
		}},
	)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	got := sb.String()
	want := "# HELP x_total Xes seen.\n" +
		"# TYPE x_total counter\n" +
		`x_total{kind="plain"} 3` + "\n" +
		`x_total{kind="quo\"te\nback\\slash"} 4` + "\n" +
		`x_total{kind="big"} 7201394` + "\n" +
		"# HELP y_depth Y depth.\n" +
		"# TYPE y_depth gauge\n" +
		"y_depth 0.5\n"
	if got != want {
		t.Errorf("rendered exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestJobStatsBoundsSamples(t *testing.T) {
	js := NewJobStats(2)
	js.AddRecords([]RecordSample{{Job: "j1"}, {Job: "j2"}})
	js.AddRecords([]RecordSample{{Job: "j3"}})
	samples, _, _ := js.snapshot()
	if len(samples) != 2 || samples[0].Job != "j2" || samples[1].Job != "j3" {
		t.Fatalf("samples = %+v, want FIFO-bounded to [j2 j3]", samples)
	}
}

// TestSchedCollectorRunAheadCounters: what the simulator decided on its
// own — to run handlers ahead of the token, or why not — reaches the scrape
// as labelled counters that total over every record, including those the
// sample store has already dropped.
func TestSchedCollectorRunAheadCounters(t *testing.T) {
	host := func(reason string, grants, handoffs, applies int64) workloads.HostStats {
		return workloads.HostStats{RunAhead: reason == "", Reason: reason,
			Stats: sched.Stats{Grants: grants, Handoffs: handoffs, Applies: applies}}
	}
	js := NewJobStats(1) // retains one sample; the totals must not care
	js.AddRecords([]RecordSample{
		{Job: "j1", System: "lcm-scc", Host: host("", 1000, 40, 900)},
		{Job: "j1", System: "copying", Host: host("scheduler hook", 500, 480, 0)},
	})
	js.AddRecords([]RecordSample{
		{Job: "j2", System: "lcm-mcc", Host: host("", 100, 4, 90)},
		{Job: "j2", System: "lcm-mcc", Host: host("fault plan", 70, 60, 0)},
	})
	got := map[string]float64{}
	schedCollector{js}.Collect(func(m Metric) {
		if !strings.HasPrefix(m.Name, "lcmd_sched_") {
			return
		}
		if m.Type != "counter" || len(m.Labels) != 2 || m.Labels[0][0] != "run_ahead" || m.Labels[1][0] != "reason" {
			t.Errorf("%s: type %q labels %v, want a counter labelled run_ahead, reason", m.Name, m.Type, m.Labels)
		}
		got[m.Name+"/"+m.Labels[0][1]+"/"+m.Labels[1][1]] = m.Value
	})
	for _, tc := range []struct {
		key  string
		want float64
	}{
		{"lcmd_sched_records_total/on/", 2},
		{"lcmd_sched_grants_total/on/", 1100},
		{"lcmd_sched_handoffs_total/on/", 44},
		{"lcmd_sched_deferred_applies_total/on/", 990},
		{"lcmd_sched_records_total/off/scheduler hook", 1},
		{"lcmd_sched_grants_total/off/scheduler hook", 500},
		{"lcmd_sched_handoffs_total/off/scheduler hook", 480},
		{"lcmd_sched_deferred_applies_total/off/scheduler hook", 0},
		{"lcmd_sched_records_total/off/fault plan", 1},
		{"lcmd_sched_handoffs_total/off/fault plan", 60},
	} {
		if v, ok := got[tc.key]; !ok || v != tc.want {
			t.Errorf("%s = %v (present=%v), want %v", tc.key, v, ok, tc.want)
		}
	}
	if len(got) != 12 {
		t.Errorf("%d scheduler samples emitted, want 4 metrics x 3 decisions: %v", len(got), got)
	}
}
