package expt

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"

	"locind/internal/asgraph"
	"locind/internal/bgp"
	"locind/internal/cdn"
	"locind/internal/core"
	"locind/internal/netaddr"
	"locind/internal/par"
	"locind/internal/stats"
)

// Fig11aResult is the content-mobility extent of Figure 11(a): the CDF over
// popular names of mobility events per day.
type Fig11aResult struct {
	PerDay   stats.Summary
	CDF      []stats.Point
	Names    int
	Days     int
	BoundMax float64 // the hourly-sampling ceiling (24/day)
}

// RunFig11a computes Figure 11(a) over the popular timelines.
func RunFig11a(w *World) Fig11aResult {
	popular, _ := w.TimelinesByClass()
	days := w.Cfg.ContentDays
	var perDay []float64
	for i := range popular {
		perDay = append(perDay, float64(popular[i].EventCount())/float64(days))
	}
	return Fig11aResult{
		PerDay:   stats.Summarize(perDay),
		CDF:      stats.NewCDF(perDay).Points(40),
		Names:    len(popular),
		Days:     days,
		BoundMax: 24,
	}
}

// Render prints the Figure 11(a) readout.
func (r Fig11aResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11(a) — mobility events per day, %d popular names over %d days\n", r.Names, r.Days)
	fmt.Fprintf(&b, "  events/day: %s\n", r.PerDay)
	fmt.Fprintf(&b, "  paper: median 2, max bounded at 24 by hourly sampling — measured median %.1f, max %.1f\n",
		r.PerDay.P50, r.PerDay.Max)
	return b.String()
}

// Fig11bcResult is the per-collector content update rate of Figures 11(b)
// (popular) and 11(c) (unpopular), under both forwarding strategies.
type Fig11bcResult struct {
	Class    cdn.Class
	Events   int
	BestPort []RouterRate
	Flooding []RouterRate
}

// collectorProgress fires a per-collector done callback when the last of a
// collector's shards actually completes. par.ForEach finishes tasks in
// arbitrary order, so "the shard with the last index" is not "the last
// shard to finish" — each collector counts down its outstanding shards
// atomically instead, and exactly one shard (the true last) observes zero.
type collectorProgress struct {
	remaining []atomic.Int32
	done      func()
}

func newCollectorProgress(collectors, shards int, done func()) *collectorProgress {
	p := &collectorProgress{remaining: make([]atomic.Int32, collectors), done: done}
	for i := range p.remaining {
		p.remaining[i].Store(int32(shards))
	}
	return p
}

// shardDone records one finished shard of collector ci.
func (p *collectorProgress) shardDone(ci int) {
	if p.remaining[ci].Add(-1) == 0 {
		p.done()
	}
}

// RunFig11bc computes Figure 11(b) or 11(c) depending on class, from one
// fused replay of the class's timelines per RouteViews collector (see
// collectorStrategyStats).
func RunFig11bc(w *World, class cdn.Class) Fig11bcResult {
	popular, unpopular := w.TimelinesByClass()
	tls := popular
	if class == cdn.Unpopular {
		tls = unpopular
	}
	cols := w.RouteViews
	sets := collectorStrategyStats(w, tls)
	res := Fig11bcResult{Class: class}
	res.BestPort = make([]RouterRate, len(cols))
	res.Flooding = make([]RouterRate, len(cols))
	for ci, c := range cols {
		tot := sets[ci]
		// Every collector replays the same timelines, so the event totals
		// must agree; a mismatch means a sharding bug lost or double-counted
		// events, which must not be papered over by keeping the last count.
		if ci == 0 {
			res.Events = tot.BestPort.Events
		} else if tot.BestPort.Events != res.Events {
			panic(fmt.Sprintf("expt: collector %q saw %d events, %q saw %d — shard accounting bug",
				c.Name, tot.BestPort.Events, cols[0].Name, res.Events))
		}
		res.BestPort[ci] = RouterRate{
			Name: c.Name, Rate: tot.BestPort.Rate(), NextHopDegree: c.FIB.NextHopDegree(), Sessions: len(c.Sessions),
		}
		res.Flooding[ci] = RouterRate{
			Name: c.Name, Rate: tot.Flooding.Rate(), NextHopDegree: c.FIB.NextHopDegree(), Sessions: len(c.Sessions),
		}
	}
	w.Cfg.Obs.rows(len(res.BestPort) + len(res.Flooding))
	return res
}

// collectorStrategyStats replays tls at every RouteViews collector and
// returns each collector's fused strategy totals, in collector order. The
// timelines' distinct address set is resolved once per collector into a
// read-only core.Memo table before the fan-out, so shards share it with no
// lock. The work fans out over (collector × timeline-shard) pairs —
// collectors alone are too few and too unequal to keep a pool busy, and
// shards are oversubscribed (par.ShardsFor) because timeline weight is
// heavy-tailed. Per-shard partials are integer totals summed in shard
// order (union state is per timeline, never crossing a shard boundary), so
// the totals are bit-identical at every parallelism degree.
func collectorStrategyStats(w *World, tls []cdn.Timeline) []core.StrategyStats {
	cols := w.RouteViews
	addrs := distinctAddrs(tls)
	memos := par.Map(w.Cfg.Parallel, len(cols), func(i int) *core.Memo {
		return core.NewMemo(cols[i].FIB, addrs...)
	})
	shards := par.ShardsFor(len(tls), w.Cfg.Parallel)
	prog := newCollectorProgress(len(cols), len(shards), w.Cfg.Obs.collectorDone)
	partial := make([]core.StrategyStats, len(cols)*len(shards))
	par.ForEach(w.Cfg.Parallel, len(partial), func(t int) {
		ci, si := t/len(shards), t%len(shards)
		sh := shards[si]
		partial[t] = core.ContentUpdateStatsAllFused(memos[ci], tls[sh[0]:sh[1]])
		prog.shardDone(ci)
	})
	sets := make([]core.StrategyStats, len(cols))
	for ci := range cols {
		for si := range shards {
			sets[ci].Add(partial[ci*len(shards)+si])
		}
	}
	return sets
}

// distinctAddrs returns every address the timelines ever hold, sorted and
// compacted. A live set only gains addresses through Initial and each
// event's Added, so no walk is needed.
func distinctAddrs(tls []cdn.Timeline) []netaddr.Addr {
	var addrs []netaddr.Addr
	for i := range tls {
		addrs = append(addrs, tls[i].Initial...)
		for j := range tls[i].Events {
			addrs = append(addrs, tls[i].Events[j].Added...)
		}
	}
	slices.Sort(addrs)
	return slices.Compact(addrs)
}

func maxRate(rs []RouterRate) float64 {
	max := 0.0
	for _, r := range rs {
		if r.Rate > max {
			max = r.Rate
		}
	}
	return max
}

func medianRate(rs []RouterRate) float64 {
	xs := make([]float64, 0, len(rs))
	for _, r := range rs {
		xs = append(xs, r.Rate)
	}
	return stats.NewCDF(xs).Median()
}

// Render prints the Figure 11(b)/(c) bar chart.
func (r Fig11bcResult) Render() string {
	var b strings.Builder
	fig := "11(b)"
	paperNote := "paper: flooding ≤13%, best-port ≤6%"
	if r.Class == cdn.Unpopular {
		fig = "11(c)"
		paperNote = "paper: flooding ≤1%, best-port median 0.08%"
	}
	fmt.Fprintf(&b, "Figure %s — fraction of %s content mobility events inducing a router update (%d events)\n",
		fig, r.Class, r.Events)
	max := maxRate(r.Flooding)
	if bp := maxRate(r.BestPort); bp > max {
		max = bp
	}
	for i := range r.BestPort {
		fmt.Fprintf(&b, "  %-14s flooding %6.2f%% %s   best-port %6.2f%% %s\n",
			r.BestPort[i].Name,
			r.Flooding[i].Rate*100, stats.Bar(r.Flooding[i].Rate, max, 18),
			r.BestPort[i].Rate*100, stats.Bar(r.BestPort[i].Rate, max, 18))
	}
	fmt.Fprintf(&b, "  flooding max %.1f%% median %.1f%%; best-port max %.1f%% median %.2f%% (%s)\n",
		maxRate(r.Flooding)*100, medianRate(r.Flooding)*100,
		maxRate(r.BestPort)*100, medianRate(r.BestPort)*100, paperNote)
	return b.String()
}

// Fig12Result is the FIB aggregateability of Figure 12.
type Fig12Result struct {
	Routers []struct {
		Name             string
		Aggregateability float64
	}
	Names int
	// UnpopularAgg is the §7.3 observation that the long tail hardly
	// aggregates at all.
	UnpopularAgg float64
}

// RunFig12 computes Figure 12: best-port FIB aggregateability for popular
// names per collector, evaluated on the hour-0 snapshot of the sweep.
func RunFig12(w *World) Fig12Result {
	popular, unpopular := w.TimelinesByClass()
	popSets := cdn.CompleteTable(popular, 0)
	unpopSets := cdn.CompleteTable(unpopular, 0)
	res := Fig12Result{Names: len(popSets)}
	for _, c := range w.RouteViews {
		res.Routers = append(res.Routers, struct {
			Name             string
			Aggregateability float64
		}{c.Name, core.AggregateabilityBestPort(c.FIB, popSets)})
	}
	if len(w.RouteViews) > 0 {
		res.UnpopularAgg = core.AggregateabilityBestPort(w.RouteViews[0].FIB, unpopSets)
	}
	return res
}

// Render prints the Figure 12 bar chart.
func (r Fig12Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12 — FIB aggregateability of %d popular content names (best-port)\n", r.Names)
	max := 0.0
	for _, rr := range r.Routers {
		if rr.Aggregateability > max {
			max = rr.Aggregateability
		}
	}
	for _, rr := range r.Routers {
		fmt.Fprintf(&b, "  %-14s %6.2fx  %s\n", rr.Name, rr.Aggregateability, stats.Bar(rr.Aggregateability, max, 30))
	}
	fmt.Fprintf(&b, "  paper: 2x-16x across collectors; long-tail names aggregate at only %.2fx\n", r.UnpopularAgg)
	return b.String()
}

// AblationResult compares the three forwarding strategies of §3.3 on the
// same popular-content workload at one collector, demonstrating the
// fungibility of update cost against forwarding state the paper discusses
// in §3.3.3.
type AblationResult struct {
	Collector string
	Events    int
	BestPort  float64
	Flooding  float64
	Union     float64
}

// RunStrategyAblation evaluates all three strategies at the most-impacted
// RouteViews collector (highest controlled-flooding rate, first on ties).
// One fused walk per collector yields all three strategy totals at once
// (collectorStrategyStats, the same fan-out as RunFig11bc), so finding the
// argmax never replays a strategy on its own.
func RunStrategyAblation(w *World) AblationResult {
	popular, _ := w.TimelinesByClass()
	cols := w.RouteViews
	sets := collectorStrategyStats(w, popular)
	best := -1
	for i := range sets {
		if best < 0 || sets[i].Flooding.Rate() > sets[best].Flooding.Rate() {
			best = i
		}
	}
	if best < 0 {
		return AblationResult{}
	}
	s := sets[best]
	return AblationResult{
		Collector: cols[best].Name,
		Events:    s.Flooding.Events,
		BestPort:  s.BestPort.Rate(),
		Flooding:  s.Flooding.Rate(),
		Union:     s.Union.Rate(),
	}
}

// Render prints the ablation readout.
func (r AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§3.3.3 strategy ablation at %s (%d popular-content events)\n", r.Collector, r.Events)
	fmt.Fprintf(&b, "  controlled flooding : %6.2f%% of events update the router\n", r.Flooding*100)
	fmt.Fprintf(&b, "  best-port           : %6.2f%%\n", r.BestPort*100)
	fmt.Fprintf(&b, "  union-of-past-addrs : %6.2f%%  (update cost → 0 as the location set saturates)\n", r.Union*100)
	return b.String()
}

// SessionSweepResult is the collector-design ablation: how a collector's
// feed count drives its device update rate — the mechanism behind Figure
// 8's spread, isolated.
type SessionSweepResult struct {
	Points []struct {
		Sessions int
		Rate     float64
	}
}

// RunSessionSweep rebuilds one synthetic collector at increasing session
// counts and measures its device update rate. Each count derives its own RNG
// from the master seed, so the sweep points are independent and evaluated in
// parallel without perturbing each other; all points share one interned
// move set.
func RunSessionSweep(w *World, counts []int) (SessionSweepResult, error) {
	moves := core.NewMoveSet(w.Devices.MoveEvents())
	type point struct {
		rate float64
		err  error
	}
	pts := par.Map(w.Cfg.Parallel, len(counts), func(i int) point {
		col, err := buildSweepCollector(w, counts[i], int64(i))
		if err != nil {
			return point{err: err}
		}
		return point{rate: moves.Stats(col.FIB).Rate()}
	})
	var res SessionSweepResult
	for i, p := range pts {
		if p.err != nil {
			return res, p.err
		}
		w.Cfg.Obs.rows(1)
		res.Points = append(res.Points, struct {
			Sessions int
			Rate     float64
		}{counts[i], p.rate})
	}
	return res, nil
}

// buildSweepCollector synthesizes one extra NorthAmerica collector with the
// requested session count, reusing the world's graph and address plan.
func buildSweepCollector(w *World, sessions int, salt int64) (*bgp.Collector, error) {
	spec := bgp.Spec{
		Name:       fmt.Sprintf("sweep-%d", sessions),
		Region:     asgraph.NorthAmerica,
		NumSess:    sessions,
		GlobalFrac: 0.35,
	}
	cols, err := bgp.BuildCollectors(w.Graph, w.Prefixes, []bgp.Spec{spec}, rand.New(rand.NewSource(w.Cfg.Seed+100+salt)))
	if err != nil {
		return nil, err
	}
	return cols[0], nil
}

// Render prints the sweep.
func (r SessionSweepResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation — collector feed count vs device update rate\n")
	max := 0.0
	for _, p := range r.Points {
		if p.Rate > max {
			max = p.Rate
		}
	}
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %3d sessions: %6.2f%%  %s\n", p.Sessions, p.Rate*100, stats.Bar(p.Rate, max, 30))
	}
	return b.String()
}
