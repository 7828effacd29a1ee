package expt

import "locind/internal/obs"

// Metrics is the evaluation engine's observability surface, attached via
// Config.Obs. Recording goes through nil-safe helpers, so the nil default
// keeps every driver on its uninstrumented path and — instrumented or not —
// drivers produce byte-identical results: the handles only count, they
// never steer.
type Metrics struct {
	// CollectorsDone counts per-collector work units finished, the
	// progress signal of a long sweep.
	CollectorsDone *obs.Counter
	// Rows counts result rows produced (scrape deltas give rows/sec).
	Rows *obs.Counter
}

// NewMetrics registers the evaluation families on reg. A nil registry
// yields all-nil handles.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		CollectorsDone: reg.Counter("locind_expt_collectors_done_total", "per-collector work units finished"),
		Rows:           reg.Counter("locind_expt_rows_total", "result rows produced"),
	}
}

func (m *Metrics) collectorDone() {
	if m != nil {
		m.CollectorsDone.Inc()
	}
}

func (m *Metrics) rows(n int) {
	if m != nil {
		m.Rows.Add(int64(n))
	}
}
