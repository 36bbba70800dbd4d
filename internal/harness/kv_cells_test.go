package harness

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"lcm/internal/workloads"
)

// Serving-cell tests: the KV cells are selectable by name alongside the
// Table-1 grid, their observables flow into the trajectory JSON and CSV,
// and an unresolvable cell name is a structured *UnknownCellError.

func TestParseCellKV(t *testing.T) {
	for _, name := range []string{"KV-read", "kv-write", " KV-read "} {
		c, err := ParseCell(name)
		if err != nil {
			t.Fatalf("ParseCell(%q): %v", name, err)
		}
		if c.Workload != "KV" {
			t.Fatalf("ParseCell(%q) = %+v, want workload KV", name, c)
		}
	}
}

func TestParseCellUnknownIsStructured(t *testing.T) {
	for _, name := range []string{"KV", "KV-mixed", "Stencil-", "", "nope"} {
		_, err := ParseCell(name)
		if err == nil {
			t.Fatalf("ParseCell(%q) succeeded, want error", name)
		}
		var uce *UnknownCellError
		if !errors.As(err, &uce) {
			t.Fatalf("ParseCell(%q) error %T, want *UnknownCellError", name, err)
		}
		if uce.Name != name {
			t.Fatalf("ParseCell(%q): error names %q", name, uce.Name)
		}
		if len(uce.Known) != len(AllCells()) {
			t.Fatalf("ParseCell(%q): %d known cells, want %d", name, len(uce.Known), len(AllCells()))
		}
		if !strings.Contains(err.Error(), "KV-read") || !strings.Contains(err.Error(), "Stencil-static") {
			t.Fatalf("ParseCell(%q): diagnostic missing cell names: %v", name, err)
		}
	}
}

func TestAllCellsShape(t *testing.T) {
	if got := len(GridCells()); got != 6 {
		t.Fatalf("GridCells() = %d cells, want the historical 6", got)
	}
	if got := len(AllCells()); got != 8 {
		t.Fatalf("AllCells() = %d cells, want 8", got)
	}
	names := CellNames()
	if names[len(names)-2] != "KV-read" || names[len(names)-1] != "KV-write" {
		t.Fatalf("CellNames() tail = %v, want KV cells last", names[len(names)-2:])
	}
}

func TestKVSpecOverrides(t *testing.T) {
	s := New(&bytes.Buffer{})
	if sp := s.KVSpec("read"); sp.Skew != 0.99 || sp.ReshardEvery != 4 {
		t.Fatalf("default KV spec %+v", sp)
	}
	s.KVSkew = 1.2
	s.KVReshard = -1
	if sp := s.KVSpec("write"); sp.Skew != 1.2 || sp.ReshardEvery != -1 {
		t.Fatalf("overridden KV spec %+v", sp)
	}
	s.Scale = 1000
	if sp := s.KVSpec("read"); sp.Keys < sp.Shards*32 || sp.OpsPerStream < 32 || sp.Phases < 3 {
		t.Fatalf("scale floor violated: %+v", sp)
	}
}

// TestKVCellsEndToEnd runs both KV cells through the harness at reduced
// scale and asserts the serving observables land in the trajectory JSON
// and the CSV rows, verified against the sequential reference.
func TestKVCellsEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	s := smallSuite(&buf)
	rows, err := s.RunCells(KVCells())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, row := range rows {
		for sys, r := range row {
			if r.Err != nil {
				t.Fatalf("%s/%v failed verification: %v", r.Label(), sys, r.Err)
			}
			if r.KV.Ops <= 0 || r.KV.Answer == 0 {
				t.Fatalf("%s/%v: empty KV stats %+v", r.Label(), sys, r.KV)
			}
		}
	}

	bf := benchFile(s.Cfg, s.Scale, rows)
	if len(bf.Records) != 6 {
		t.Fatalf("records = %d, want 6", len(bf.Records))
	}
	for _, rec := range bf.Records {
		if rec.Workload != "KV" {
			t.Fatalf("record workload %q", rec.Workload)
		}
		if rec.KVOps <= 0 || rec.KVGets <= 0 || rec.KVPuts <= 0 || rec.KVAnswer == 0 {
			t.Fatalf("record missing KV observables: %+v", rec)
		}
		if !rec.Verified {
			t.Fatalf("record not verified: %+v", rec)
		}
	}

	var csv bytes.Buffer
	if err := WriteCSV(&csv, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 1+6 {
		t.Fatalf("csv has %d lines, want %d", len(lines), 1+6)
	}
	if !strings.Contains(lines[0], "kv_ops") || !strings.HasSuffix(lines[0], "kv_answer") {
		t.Fatalf("csv header missing KV columns: %q", lines[0])
	}
	for _, l := range lines[1:] {
		if strings.Count(l, ",") != strings.Count(lines[0], ",") {
			t.Fatalf("ragged row %q", l)
		}
	}
}

// TestKVReplayByteIdenticalJSON is the KV cells' version of the replay
// contract: two runs of the same tuple render byte-identical
// deterministic trajectory JSON, per schedule seed.
func TestKVReplayByteIdenticalJSON(t *testing.T) {
	run := func(cfg workloads.Config) []byte {
		t.Helper()
		s := New(&bytes.Buffer{})
		s.Cfg = cfg
		s.Scale = 16
		rows, err := s.RunCells(KVCells())
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			for sys, r := range row {
				if r.Err != nil {
					t.Fatalf("%s/%v (seed %d): %v", r.Label(), sys, cfg.SchedSeed, r.Err)
				}
			}
		}
		b, err := MarshalDeterministic(cfg, s.Scale, rows)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, seed := range []uint64{0, 0xdeadbeef} {
		cfg := workloads.Config{P: 8, Verify: true, SchedSeed: seed}
		first := run(cfg)
		second := run(cfg)
		if !bytes.Equal(first, second) {
			t.Errorf("seed %d: KV replay JSON differs between two runs", seed)
		}
	}
}

// TestKVSkewChangesBytes pins that the skew knob is part of the
// deterministic tuple: a different -kvskew must change the trajectory
// bytes (else the lcmd cache could serve the wrong result).
func TestKVSkewChangesBytes(t *testing.T) {
	run := func(skew float64) []byte {
		t.Helper()
		s := New(&bytes.Buffer{})
		s.Cfg = workloads.Config{P: 8, SchedSeed: 0}
		s.Scale = 16
		s.KVSkew = skew
		rows, err := s.RunCells([]CellSpec{{Workload: "KV", Sched: "read"}})
		if err != nil {
			t.Fatal(err)
		}
		b, err := MarshalDeterministic(s.Cfg, s.Scale, rows)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if bytes.Equal(run(0.4), run(1.4)) {
		t.Fatal("different KV skews produced identical trajectory bytes")
	}
}
