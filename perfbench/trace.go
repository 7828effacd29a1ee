package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"locind/internal/bgp"
	"locind/internal/cdn"
	"locind/internal/core"
	"locind/internal/expt"
	"locind/internal/mobility"
	"locind/internal/netaddr"
	"locind/internal/obs"
	"locind/internal/stats"
)

// newTracer returns a tracer that keeps every span of a traced run in
// memory, stamped with wall time since the run began.
func newTracer(seed int64) *obs.Tracer {
	tr := obs.NewTracer(seed, 1<<19)
	begin := time.Now()
	tr.SetNow(func() time.Duration { return time.Since(begin) })
	return tr
}

// writeChrome writes the run's spans as a Chrome trace next to the run
// record and returns its path.
func writeChrome(o runOpts, name string, tr *obs.Tracer) (string, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return "", err
	}
	var b strings.Builder
	tr.WriteChrome(&b)
	path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.trace.json", name, o.seed))
	return path, os.WriteFile(path, []byte(b.String()), 0o644)
}

// sumDur is the total duration of the spans named name.
func sumDur(spans []obs.SpanRecord, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.Dur
		}
	}
	return d
}

// durations lists the durations of the spans named name.
func durations(spans []obs.SpanRecord, name string) []time.Duration {
	var ds []time.Duration
	for _, s := range spans {
		if s.Name == name {
			ds = append(ds, s.Dur)
		}
	}
	return ds
}

// selfTime is the total duration of the spans named name minus the time
// their direct children cover.
func selfTime(spans []obs.SpanRecord, name string) time.Duration {
	ids := map[uint64]bool{}
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			ids[s.ID] = true
			d += s.Dur
		}
	}
	for _, s := range spans {
		if ids[s.Parent] {
			d -= s.Dur
		}
	}
	return d
}

// tape records a resolver's answers in call order; with r cleared it
// plays them back. An evaluator replayed over the tape does all of its own
// work and none of the resolution, so the difference between the two runs
// is the time resolution took — without a clock read per call, which would
// cost more than a memo hit.
type tape struct {
	r       core.RouteLookup
	answers []answer
	next    int
}

type answer struct {
	rt bgp.Route
	ok bool
}

func (t *tape) Port(a netaddr.Addr) (int, bool) {
	if t.r == nil {
		ans := &t.answers[t.next]
		t.next++
		return ans.rt.NextHop, ans.ok
	}
	p, ok := t.r.Port(a)
	t.answers = append(t.answers, answer{bgp.Route{NextHop: p}, ok})
	return p, ok
}

func (t *tape) RouteFor(a netaddr.Addr) (bgp.Route, bool) {
	if t.r == nil {
		ans := &t.answers[t.next]
		t.next++
		return ans.rt, ans.ok
	}
	rt, ok := t.r.RouteFor(a)
	t.answers = append(t.answers, answer{rt, ok})
	return rt, ok
}

// missLog sits between a memo and its FIB and keeps the address of every
// longest-prefix match the memo falls back to.
type missLog struct {
	fib   *bgp.FIB
	addrs []netaddr.Addr
}

func (m *missLog) Port(a netaddr.Addr) (int, bool) {
	m.addrs = append(m.addrs, a)
	return m.fib.Port(a)
}

func (m *missLog) RouteFor(a netaddr.Addr) (bgp.Route, bool) {
	m.addrs = append(m.addrs, a)
	return m.fib.RouteFor(a)
}

// replayStats accumulates the layer replay's counts over a run's worlds.
type replayStats struct {
	resolveCalls, lpmCalls, walkEvents int64
	lpmSink                            int
}

// collector replays eval, an evaluator the figure drivers run per
// collector, over one collector's FIB, and returns its result. It makes
// four timed or counted runs:
//
//   - span <name>: over core.NewMemo(fib), exactly as the drivers do;
//   - untimed: over a tape recording the memo's answers, with the memo's
//     misses logged on their way to the FIB;
//   - span <name>.self: over the tape played back, the evaluator alone;
//   - span netaddr.lpm: the logged misses looked up in the FIB again.
//
// All three evaluations must agree.
func (s *replayStats) collector(tr *obs.Tracer, name string, c *bgp.Collector, eval func(core.RouteLookup) any) (any, error) {
	sp := tr.Start(name, "collector", c.Name)
	want := eval(core.NewMemo(c.FIB))
	sp.End()
	misses := &missLog{fib: c.FIB}
	rec := &tape{r: core.NewMemo(misses)}
	if got := eval(rec); got != want {
		return nil, fmt.Errorf("%s at %s: recorded run gave %v, memo run %v", name, c.Name, got, want)
	}
	rec.r = nil
	sp = tr.Start(name+".self", "collector", c.Name)
	got := eval(rec)
	sp.End()
	if got != want {
		return nil, fmt.Errorf("%s at %s: played-back run gave %v, memo run %v", name, c.Name, got, want)
	}
	sp = tr.Start("netaddr.lpm", "collector", c.Name)
	for _, a := range misses.addrs {
		rt, _ := c.FIB.RouteFor(a)
		s.lpmSink += rt.NextHop
	}
	sp.End()
	s.resolveCalls += int64(len(rec.answers))
	s.lpmCalls += int64(len(misses.addrs))
	return want, nil
}

// report writes the replay's per-layer metrics, per world, into res.
func (s *replayStats) report(res *result, spans []obs.SpanRecord, worlds float64) {
	resolve := sumDur(spans, spanFused) - sumDur(spans, spanFused+".self") +
		sumDur(spans, spanDevice) - sumDur(spans, spanDevice+".self")
	res.metrics["core.resolve_calls"] = float64(s.resolveCalls) / worlds
	if s.resolveCalls > 0 {
		res.metrics["core.resolve_hit_ratio"] = 1 - float64(s.lpmCalls)/float64(s.resolveCalls)
		res.metrics["core.resolve_ns"] = float64(resolve.Nanoseconds()) / float64(s.resolveCalls)
	}
	res.metrics["netaddr.lpm_calls"] = float64(s.lpmCalls) / worlds
	if s.lpmCalls > 0 {
		res.metrics["netaddr.lpm_ns"] = float64(sumDur(spans, "netaddr.lpm").Nanoseconds()) / float64(s.lpmCalls)
	}
	res.metrics["cdn.walk_events"] = float64(s.walkEvents) / worlds
	res.metrics["cdn.walk_s"] = sumDur(spans, spanWalk).Seconds() / worlds
	res.metrics["core.fused_self_s"] = sumDur(spans, spanFused+".self").Seconds() / worlds
	res.metrics["core.displaced_self_s"] = sumDur(spans, spanDevice+".self").Seconds() / worlds
}

const (
	spanFused  = "core.ContentUpdateStatsAllFused"
	spanDevice = "core.DeviceUpdateStats"
	spanWalk   = "cdn.Timeline.Walk"
)

// replayContent is the layer replay of figures-quick: Fig 11b's fused
// evaluation of the popular timelines, one RouteViews collector at a time,
// then a bare walk of the same timelines. The counts must match what the
// Fig 11b driver rendered.
func replayContent(w *expt.World, fig11b expt.Fig11bcResult, tr *obs.Tracer, rep *replayStats, res *result) error {
	popular, _ := w.TimelinesByClass()
	for ci, c := range w.RouteViews {
		got, err := rep.collector(tr, spanFused, c, func(r core.RouteLookup) any {
			return core.ContentUpdateStatsAllFused(r, popular)
		})
		if err != nil {
			return err
		}
		st := got.(core.StrategyStats)
		res.attempted++
		if st.BestPort.Events != fig11b.Events || st.BestPort.Rate() != fig11b.BestPort[ci].Rate || st.Flooding.Rate() != fig11b.Flooding[ci].Rate {
			res.fail("world %d: content replay at %s disagrees with Fig 11b", w.Cfg.Seed, c.Name)
		}
		sp := tr.Start(spanWalk, "collector", c.Name)
		for i := range popular {
			popular[i].Walk(func(cdn.Event, []netaddr.Addr, []netaddr.Addr) { rep.walkEvents++ })
		}
		sp.End()
	}
	return nil
}

// replayDevice is the layer replay of device-full: the sensitivity
// driver's IMAP workload generation, then its per-collector device
// evaluation of both event sets over all 25 collectors. The rates must
// reproduce Fig 8 and the rendered correlation.
func replayDevice(w *expt.World, p *figurePass, tr *obs.Tracer, rep *replayStats, res *result) error {
	sp := tr.Start("mobility.imap")
	imapCfg := w.Cfg.Device
	imapCfg.Users = w.Cfg.IMAPUsers
	imapCfg.Days = w.Cfg.IMAPDays
	imapTrace, err := mobility.GenerateDeviceTrace(w.Graph, w.Prefixes, imapCfg, rand.New(rand.NewSource(w.Cfg.Seed+6)))
	var imapEvents []mobility.MoveEvent
	if err == nil {
		imapEvents = mobility.IMAPMoveEvents(imapTrace, 2.0, rand.New(rand.NewSource(w.Cfg.Seed+7)))
	}
	sp.End()
	if err != nil {
		return err
	}
	events := w.Devices.MoveEvents()
	all := append(append([]*bgp.Collector{}, w.RouteViews...), w.RIPE...)
	nomadRates := make([]float64, len(all))
	imapRates := make([]float64, len(all))
	for i, c := range all {
		got, err := rep.collector(tr, spanDevice, c, func(r core.RouteLookup) any {
			return [2]float64{core.DeviceUpdateStats(r, events).Rate(), core.DeviceUpdateStats(r, imapEvents).Rate()}
		})
		if err != nil {
			return err
		}
		rates := got.([2]float64)
		nomadRates[i], imapRates[i] = rates[0], rates[1]
	}
	res.attempted++
	corr, err := stats.Pearson(nomadRates, imapRates)
	if err != nil || corr != p.sens.Correlation || len(imapEvents) != p.sens.IMAPEvents {
		res.fail("world %d: device replay disagrees with the sensitivity driver", w.Cfg.Seed)
	}
	for i, r := range p.ensure8().Routers {
		if nomadRates[i] != r.Rate {
			res.fail("world %d: device replay at %s disagrees with Fig 8", w.Cfg.Seed, r.Name)
		}
	}
	return nil
}
