package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestProfilerPhasesAndCounterDeltas(t *testing.T) {
	reg := NewRegistry()
	lookups := reg.Counter("locind_test_lookups_total", "lookups")
	rows := reg.Counter("locind_rows_total", "rows")

	p := NewProfiler(reg)
	var tick time.Duration
	p.SetNow(func() time.Duration { tick += 10 * time.Millisecond; return tick })

	ph := p.Begin("build-world")
	rows.Add(100)
	ph.End()

	ph = p.Begin("fig8")
	lookups.Add(40)
	ph.End()

	phases := p.Phases()
	if len(phases) != 2 || phases[0].Name != "build-world" || phases[1].Name != "fig8" {
		t.Fatalf("phase list wrong: %+v", phases)
	}
	if d := phases[0].Counters["locind_rows_total"]; d != 100 {
		t.Fatalf("build-world rows delta = %d, want 100", d)
	}
	if _, ok := phases[1].Counters["locind_rows_total"]; ok {
		t.Fatal("fig8 must not see build-world's counter increments")
	}
	if d := phases[1].Counters["locind_test_lookups_total"]; d != 40 {
		t.Fatalf("fig8 lookups delta = %d, want 40", d)
	}
	if _, ok := phases[0].Counters["locind_test_lookups_total"]; ok {
		t.Fatal("build-world must not see fig8's counter increments")
	}
	for _, ps := range phases {
		if ps.Wall <= 0 {
			t.Fatalf("phase %q wall time not positive with a ticking clock: %+v", ps.Name, ps)
		}
		if ps.GoroutineHigh < 1 {
			t.Fatalf("phase %q goroutine high-water mark = %d", ps.Name, ps.GoroutineHigh)
		}
	}
}

func TestProfilerPhaseEndTwiceCommitsOnce(t *testing.T) {
	p := NewProfiler(nil)
	ph := p.Begin("once")
	ph.End()
	ph.End()
	if got := len(p.Phases()); got != 1 {
		t.Fatalf("double End committed %d phases, want 1", got)
	}
}

func TestProfilerNilSafe(t *testing.T) {
	var p *Profiler
	p.SetNow(func() time.Duration { return 0 })
	ph := p.Begin("ghost")
	ph.End()
	if p.Phases() != nil {
		t.Fatal("nil profiler must report no phases")
	}
	var nilPhase *ProfPhase
	nilPhase.End()
}

func TestProfilerReportRendering(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("locind_test_lookups_total", "lookups")
	p := NewProfiler(reg)
	ph := p.Begin("fig11b")
	reg.Counter("locind_test_lookups_total", "lookups").Add(5)
	ph.End()

	var md strings.Builder
	p.WriteReport(&md)
	report := md.String()
	for _, want := range []string{"# RUNREPORT", "| fig11b |", "locind_test_lookups_total | 5"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}

	var js strings.Builder
	p.WriteJSON(&js)
	var doc struct {
		Phases []PhaseStats `json:"phases"`
	}
	if err := json.Unmarshal([]byte(js.String()), &doc); err != nil {
		t.Fatalf("JSON artifact invalid: %v\n%s", err, js.String())
	}
	if len(doc.Phases) != 1 || doc.Phases[0].Counters["locind_test_lookups_total"] != 5 {
		t.Fatalf("JSON artifact wrong: %+v", doc.Phases)
	}

	// Empty profiler renders the explicit no-phases form, not a bare table.
	var empty strings.Builder
	NewProfiler(nil).WriteReport(&empty)
	if !strings.Contains(empty.String(), "(no phases recorded)") {
		t.Fatalf("empty report:\n%s", empty.String())
	}
}
