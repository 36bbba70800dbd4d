package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestGroupInt(t *testing.T) {
	cases := map[int64]string{
		0:        "0",
		7:        "7",
		999:      "999",
		1000:     "1,000",
		1234567:  "1,234,567",
		-9876543: "-9,876,543",
		12:       "12",
		123456:   "123,456",
	}
	for v, want := range cases {
		if got := GroupInt(v); got != want {
			t.Errorf("GroupInt(%d) = %q, want %q", v, got, want)
		}
	}
}

// Property: GroupInt is the plain decimal rendering with commas removed.
func TestGroupIntProperty(t *testing.T) {
	f := func(v int64) bool {
		s := strings.ReplaceAll(GroupInt(v), ",", "")
		var back int64
		neg := false
		for i := 0; i < len(s); i++ {
			if s[i] == '-' {
				neg = true
				continue
			}
			back = back*10 + int64(s[i]-'0')
		}
		if neg {
			back = -back
		}
		return back == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestThousands(t *testing.T) {
	if got := Thousands(3215700); got != "3,216" {
		t.Fatalf("Thousands rounding: %q", got)
	}
	if got := Thousands(499); got != "0" {
		t.Fatalf("Thousands(499) = %q", got)
	}
	if got := Thousands(500); got != "1" {
		t.Fatalf("Thousands(500) = %q", got)
	}
}

func TestBar(t *testing.T) {
	if got := Bar(50, 100, 10); got != "#####" {
		t.Fatalf("Bar = %q", got)
	}
	if got := Bar(200, 100, 10); got != "##########" {
		t.Fatalf("Bar clamp = %q", got)
	}
	if got := Bar(5, 0, 10); len(got) > 10 {
		t.Fatalf("Bar with zero max = %q", got)
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(200, 100); got != "2.00" {
		t.Fatalf("Speedup = %q", got)
	}
	if got := Speedup(100, 0); got != "inf" {
		t.Fatalf("Speedup by zero = %q", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table 1", "scc", "mcc")
	tb.AddRow("Stencil", map[string]string{"scc": GroupInt(3216), "mcc": GroupInt(6374)})
	tb.AddRow("Adaptive", map[string]string{"scc": "-", "mcc": "x"})
	out := tb.String()
	for _, want := range []string{"Table 1", "workload", "scc", "mcc", "3,216", "6,374", "Adaptive", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
}

func TestNodeCountersAdd(t *testing.T) {
	a := NodeCounters{Hits: 1, Misses: 2, RemoteMisses: 3, LocalFills: 4,
		Upgrades: 5, InvalidationsSent: 6, InvalidationsRecv: 7, Flushes: 8,
		WordsFlushed: 9, Marks: 10, Barriers: 11, CopiedWords: 12}
	var b NodeCounters
	b.Add(&a)
	b.Add(&a)
	if b.Hits != 2 || b.Misses != 4 || b.CopiedWords != 24 || b.Barriers != 22 {
		t.Fatalf("Add: %+v", b)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]int64{10, 20, 30})
	if s.Min != 10 || s.Max != 30 || s.Mean != 20 {
		t.Fatalf("summary %+v", s)
	}
	if got := s.Imbalance(); got != 50 {
		t.Fatalf("imbalance %v", got)
	}
	if !strings.Contains(s.String(), "+50.0% imbalance") {
		t.Fatalf("string %q", s.String())
	}
	if z := Summarize(nil); z != (Summary{}) {
		t.Fatalf("empty %+v", z)
	}
	if (Summary{}).Imbalance() != 0 {
		t.Fatal("zero-mean imbalance")
	}
}
