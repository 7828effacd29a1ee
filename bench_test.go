// Package locind_test holds the benchmark harness: one testing.B benchmark
// per table and figure of the paper's evaluation, so
//
//	go test -bench=. -benchmem
//
// regenerates every result and reports its cost. The benchmarks share one
// lazily built QuickConfig world (building the world itself is benchmarked
// separately); `cmd/locind` runs the same drivers at full paper scale.
package locind_test

import (
	"context"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"locind/internal/cdn"
	"locind/internal/expt"
	"locind/internal/mobility"
	"locind/internal/nomad/engine"
	"locind/internal/obs"
)

var (
	benchOnce  sync.Once
	benchWorld *expt.World
	benchErr   error
)

func world(b *testing.B) *expt.World {
	b.Helper()
	benchOnce.Do(func() {
		benchWorld, benchErr = expt.BuildWorld(expt.QuickConfig())
		if benchErr == nil {
			benchWorld.Timelines() // pre-generate so content benches measure analysis only
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchWorld
}

// BenchmarkWorldBuild measures synthesizing the entire substrate: AS graph,
// address plan, 25 collectors, device trace, and content deployment.
func BenchmarkWorldBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := expt.BuildWorld(expt.QuickConfig())
		if err != nil {
			b.Fatal(err)
		}
		_ = w
	}
}

// BenchmarkTable1 regenerates the §5 analytic table (closed forms, exact
// enumeration, and simulation).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.RunTable1(63, 50, 200, 1)
	}
}

// BenchmarkFig6 regenerates the distinct-locations-per-day CDFs.
func BenchmarkFig6(b *testing.B) {
	w := world(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.RunFig6(w)
	}
}

// BenchmarkFig7 regenerates the transitions-per-day CDFs.
func BenchmarkFig7(b *testing.B) {
	w := world(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.RunFig7(w)
	}
}

// BenchmarkFig8 regenerates the per-collector device update rates.
func BenchmarkFig8(b *testing.B) {
	w := world(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.RunFig8(w)
	}
}

// BenchmarkSensitivity regenerates the §6.2.2 robustness checks, including
// the 7137-user-style IMAP proxy workload.
func BenchmarkSensitivity(b *testing.B) {
	w := world(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunSensitivity(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9 regenerates the dominant-location dwell CDFs.
func BenchmarkFig9(b *testing.B) {
	w := world(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.RunFig9(w)
	}
}

// BenchmarkFig10 regenerates the indirection-stretch figure (iPlane build +
// latency queries + AS-hop lower bound).
func BenchmarkFig10(b *testing.B) {
	w := world(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.RunFig10(w)
	}
}

// BenchmarkFig11a regenerates the popular-content mobility-extent CDF.
func BenchmarkFig11a(b *testing.B) {
	w := world(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.RunFig11a(w)
	}
}

// BenchmarkFig11b regenerates the popular-content per-collector update
// rates under both forwarding strategies.
func BenchmarkFig11b(b *testing.B) {
	w := world(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.RunFig11bc(w, cdn.Popular)
	}
}

// BenchmarkFig11c regenerates the unpopular-content update rates.
func BenchmarkFig11c(b *testing.B) {
	w := world(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.RunFig11bc(w, cdn.Unpopular)
	}
}

// BenchmarkFig12 regenerates the FIB-aggregateability figure.
func BenchmarkFig12(b *testing.B) {
	w := world(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.RunFig12(w)
	}
}

// BenchmarkEnvelope regenerates the back-of-the-envelope block.
func BenchmarkEnvelope(b *testing.B) {
	w := world(b)
	f8 := expt.RunFig8(w)
	f9 := expt.RunFig9(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.RunEnvelope(w, f8, f9)
	}
}

// BenchmarkStrategyAblation regenerates the §3.3.3 strategy comparison.
func BenchmarkStrategyAblation(b *testing.B) {
	w := world(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.RunStrategyAblation(w)
	}
}

// BenchmarkNetsimComparison regenerates the packet-level architecture
// comparison.
func BenchmarkNetsimComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunNetsim(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContentTraffic regenerates the §3.3.3 forwarding-traffic
// trade-off.
func BenchmarkContentTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunContentTraffic(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompactRouting regenerates the §2.1 compact-routing sweep.
func BenchmarkCompactRouting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunCompact(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionSweep regenerates the collector feed-count ablation.
func BenchmarkSessionSweep(b *testing.B) {
	w := world(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunSessionSweep(w, []int{4, 16, 36}); err != nil {
			b.Fatal(err)
		}
	}
}

// Sequential-vs-parallel pairs. Each driver's result is bit-identical at
// every worker count (asserted by the determinism tests), so the pairs
// measure exactly the engine's speedup: compare Sequential (1 worker)
// against Parallel (GOMAXPROCS workers).

// benchAt pins the shared world's parallelism knob for one benchmark.
func benchAt(b *testing.B, parallel int, fn func(w *expt.World)) {
	w := world(b)
	old := w.Cfg.Parallel
	w.Cfg.Parallel = parallel
	b.Cleanup(func() { w.Cfg.Parallel = old })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(w)
	}
}

func BenchmarkFig8Sequential(b *testing.B) {
	benchAt(b, 1, func(w *expt.World) { expt.RunFig8(w) })
}

func BenchmarkFig8Parallel(b *testing.B) {
	benchAt(b, 0, func(w *expt.World) { expt.RunFig8(w) })
}

func BenchmarkFig11bSequential(b *testing.B) {
	benchAt(b, 1, func(w *expt.World) { expt.RunFig11bc(w, cdn.Popular) })
}

func BenchmarkFig11bParallel(b *testing.B) {
	benchAt(b, 0, func(w *expt.World) { expt.RunFig11bc(w, cdn.Popular) })
}

func BenchmarkFig11cSequential(b *testing.B) {
	benchAt(b, 1, func(w *expt.World) { expt.RunFig11bc(w, cdn.Unpopular) })
}

func BenchmarkFig11cParallel(b *testing.B) {
	benchAt(b, 0, func(w *expt.World) { expt.RunFig11bc(w, cdn.Unpopular) })
}

func BenchmarkSensitivitySequential(b *testing.B) {
	benchAt(b, 1, func(w *expt.World) {
		if _, err := expt.RunSensitivity(w); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkSensitivityParallel(b *testing.B) {
	benchAt(b, 0, func(w *expt.World) {
		if _, err := expt.RunSensitivity(w); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkTimelinesSequential(b *testing.B) {
	w := world(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Deployment.TimelinesParallel(24*7, rand.New(rand.NewSource(int64(i))), 1)
	}
}

func BenchmarkTimelinesParallel(b *testing.B) {
	w := world(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Deployment.TimelinesParallel(24*7, rand.New(rand.NewSource(int64(i))), 0)
	}
}

// BenchmarkNomadEngine measures the event-heap agent engine's raw
// simulation throughput: 2000 streamed devices over 2 days with a nil
// uploader, so the number is pure event-step cost (heap churn, day
// refills, sealing and backpressure eviction) with no network in the
// loop. Reset replays the same fleet in place, so iterations after the
// first run the zero-alloc steady-state path the allocguard tests pin.
func BenchmarkNomadEngine(b *testing.B) {
	w := world(b)
	fleet, err := mobility.NewFleetGen(w.Graph, w.Prefixes, w.Cfg.Device, 9)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := engine.New(engine.Config{
		Fleet:            fleet,
		Devices:          2000,
		Days:             2,
		MaxPending:       64,
		MaxQueuedBatches: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Reset()
		if err := eng.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(eng.Steps()), "events/op")
}

// BenchmarkSamplerTick measures one time-series sampling tick over a
// registry shaped like the nomad soak's (a few dozen counters and gauges
// plus one histogram, which expands to five derived series): the cost the
// dashboard adds to every 200ms of a soak. After the first tick builds the
// rings, the per-tick path is zero-alloc (the allocguard tests pin it).
func BenchmarkSamplerTick(b *testing.B) {
	reg := obs.NewRegistry()
	for i := 0; i < 16; i++ {
		c := reg.Counter("bench_ops_total", "ops", "shard", strconv.Itoa(i))
		g := reg.Gauge("bench_queue_entries", "queue depth", "shard", strconv.Itoa(i))
		c.Add(int64(i))
		g.Set(int64(i))
	}
	h := reg.Histogram("bench_latency_seconds", "latency", nil)
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i%97) / 250)
	}
	smp := obs.NewSampler(reg, 0)
	smp.Tick() // cold path: build sources and rings
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		smp.Tick()
	}
}
