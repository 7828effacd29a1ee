package expt

import (
	"testing"

	"locind/internal/cdn"
	"locind/internal/netaddr"
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
	if m.Memo.Misses.Value() == 0 || m.Memo.Hits.Value() == 0 {
		t.Fatalf("memo counters idle: hits=%d misses=%d", m.Memo.Hits.Value(), m.Memo.Misses.Value())
	}
}

// The content drivers resolve each distinct address exactly once per
// collector, before the fan-out, and every later lookup is a table hit, so
// both memo counters are exact and independent of the scheduler: misses are
// the distinct popular addresses times the collectors (the "LPM lookups ≤
// distinct × collectors" bound, met with equality), and hits are the same
// at every parallelism degree.
func TestFig11bMemoCountersExact(t *testing.T) {
	w := quickWorld(t)
	popular, _ := w.TimelinesByClass()
	distinct := map[netaddr.Addr]bool{}
	for i := range popular {
		for _, a := range popular[i].Initial {
			distinct[a] = true
		}
		popular[i].Walk(func(_ cdn.Event, _, after []netaddr.Addr) {
			for _, a := range after {
				distinct[a] = true
			}
		})
	}
	wantMisses := int64(len(distinct) * len(w.RouteViews))

	counts := func(parallel int) (hits, misses int64) {
		withParallel(t, w, parallel, func() {
			w.Cfg.Obs = NewMetrics(obs.NewRegistry())
			defer func() { w.Cfg.Obs = nil }()
			RunFig11bc(w, cdn.Popular)
			hits, misses = w.Cfg.Obs.Memo.Hits.Value(), w.Cfg.Obs.Memo.Misses.Value()
		})
		return hits, misses
	}
	seqHits, seqMisses := counts(1)
	parHits, parMisses := counts(4)
	if seqMisses != wantMisses || parMisses != wantMisses {
		t.Fatalf("misses = %d (parallel 1), %d (parallel 4); want %d distinct × %d collectors = %d",
			seqMisses, parMisses, len(distinct), len(w.RouteViews), wantMisses)
	}
	if seqHits == 0 || parHits != seqHits {
		t.Fatalf("hits = %d (parallel 1), %d (parallel 4); want equal and non-zero", seqHits, parHits)
	}
}
