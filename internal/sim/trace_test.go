package sim_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/hmp"
	"repro/internal/sim"
)

func TestTracerRecordsEvents(t *testing.T) {
	m := sim.New(hmp.Default(), sim.Config{})
	tr := &sim.Tracer{}
	m.SetTracer(tr)
	if m.Tracer() != tr {
		t.Fatal("Tracer accessor wrong")
	}
	p := m.Spawn("s", &spinner{threads: 1, unit: 0.2, beats: true}, 4)
	p.SetAffinity(0, hmp.MaskOf(0))
	m.Run(1 * sim.Second)
	m.SetLevel(hmp.Big, 2)
	m.SetLevel(hmp.Big, 2) // no change: must not trace
	p.SetAffinity(0, hmp.MaskOf(5))
	m.Run(1 * sim.Second)

	var migs, dvfs, beats int
	for _, e := range tr.Events() {
		switch e.Kind {
		case sim.EvMigrate:
			migs++
			if e.Proc != "s" {
				t.Errorf("migrate event proc = %q", e.Proc)
			}
		case sim.EvDVFS:
			dvfs++
			if e.Cluster != hmp.Big || e.KHz != 1_000_000 {
				t.Errorf("dvfs event = %+v", e)
			}
		case sim.EvBeat:
			beats++
		}
	}
	if migs < 2 { // initial placement + cross-cluster move
		t.Errorf("migrations traced = %d, want ≥ 2", migs)
	}
	if dvfs != 1 {
		t.Errorf("dvfs traced = %d, want exactly 1 (no-op changes skipped)", dvfs)
	}
	if beats == 0 {
		t.Error("no beats traced")
	}
	if tr.Dropped() != 0 {
		t.Errorf("dropped = %d", tr.Dropped())
	}
}

func TestTracerCap(t *testing.T) {
	m := sim.New(hmp.Default(), sim.Config{})
	tr := &sim.Tracer{Max: 5}
	m.SetTracer(tr)
	p := m.Spawn("s", &spinner{threads: 1, unit: 0.01, beats: true}, 4)
	p.SetAffinity(0, hmp.MaskOf(4))
	m.Run(2 * sim.Second)
	if len(tr.Events()) != 5 {
		t.Fatalf("retained = %d, want 5", len(tr.Events()))
	}
	if tr.Dropped() == 0 {
		t.Fatal("expected drops beyond the cap")
	}
}

func TestTraceCSV(t *testing.T) {
	m := sim.New(hmp.Default(), sim.Config{})
	tr := &sim.Tracer{}
	m.SetTracer(tr)
	p := m.Spawn("app", &spinner{threads: 1, unit: 0.3, beats: true}, 4)
	p.SetAffinity(0, hmp.MaskOf(0))
	m.Run(2 * sim.Second)
	m.SetLevel(hmp.Little, 0)

	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "time_us,kind,") {
		t.Fatalf("missing header:\n%s", out)
	}
	for _, want := range []string{"beat,app", "migrate,app", "dvfs"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q", want)
		}
	}
}

func TestTraceChromeFormat(t *testing.T) {
	m := sim.New(hmp.Default(), sim.Config{})
	tr := &sim.Tracer{}
	m.SetTracer(tr)
	p := m.Spawn("app", &spinner{threads: 1, unit: 0.3, beats: true}, 4)
	p.SetAffinity(0, hmp.MaskOf(0))
	m.Run(2 * sim.Second)
	m.SetLevel(hmp.Little, 1)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	phases := map[string]bool{}
	for _, e := range parsed.TraceEvents {
		phases[e["ph"].(string)] = true
	}
	if !phases["i"] || !phases["C"] {
		t.Errorf("expected instant and counter events, got %v", phases)
	}
}

func TestEventKindString(t *testing.T) {
	if sim.EvMigrate.String() != "migrate" || sim.EvDVFS.String() != "dvfs" || sim.EvBeat.String() != "beat" {
		t.Error("event kind strings wrong")
	}
	if sim.EventKind(99).String() == "" {
		t.Error("unknown kind should render")
	}
}
