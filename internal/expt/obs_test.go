package expt

import (
	"testing"

	"locind/internal/cdn"
	"locind/internal/obs"
)

// TestObsDoesNotPerturbResults is the observability ground rule: rendering
// an experiment with live metrics attached must produce byte-identical
// output to rendering it unobserved. The handles count; they never steer.
func TestObsDoesNotPerturbResults(t *testing.T) {
	w := quickWorld(t)
	if w.Cfg.Obs != nil {
		t.Fatal("shared world must start unobserved")
	}
	off8 := RunFig8(w).Render()
	off11b := RunFig11bc(w, cdn.Popular).Render()

	reg := obs.NewRegistry()
	w.Cfg.Obs = NewMetrics(reg)
	defer func() { w.Cfg.Obs = nil }()
	on8 := RunFig8(w).Render()
	on11b := RunFig11bc(w, cdn.Popular).Render()

	if on8 != off8 {
		t.Fatalf("Fig8 output diverged with obs enabled:\n--- off ---\n%s\n--- on ---\n%s", off8, on8)
	}
	if on11b != off11b {
		t.Fatalf("Fig11b output diverged with obs enabled:\n--- off ---\n%s\n--- on ---\n%s", off11b, on11b)
	}

	// And the observed run actually observed something.
	m := w.Cfg.Obs
	wantDone := int64(2 * len(w.RouteViews)) // one unit per collector per driver
	if m.CollectorsDone.Value() != wantDone {
		t.Fatalf("collectors done = %d, want %d", m.CollectorsDone.Value(), wantDone)
	}
	if m.Rows.Value() == 0 {
		t.Fatal("no rows counted")
	}
}
