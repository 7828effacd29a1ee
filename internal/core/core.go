// Package core implements the paper's primary contribution: the
// quantitative methodology for comparing location-independent network
// architectures. It provides the displacement test of §3.1-3.2 (does a
// mobility event change a router's forwarding behaviour?), the multihomed
// update-cost definitions of §3.3.1 for best-port forwarding and controlled
// flooding (plus the union-of-past-addresses strategy sketched in §3.3.3),
// forwarding-table size and aggregateability accounting, and the per-
// architecture cost model used by the experiments.
package core

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"locind/internal/bgp"
	"locind/internal/cdn"
	"locind/internal/mobility"
	"locind/internal/names"
	"locind/internal/netaddr"
)

// PortLookup is the slice of router behaviour the displacement test needs:
// the output port (next-hop AS) an address forwards to.
type PortLookup interface {
	Port(a netaddr.Addr) (int, bool)
}

// RouteLookup additionally exposes the selected route, which the best-port
// strategy needs to rank addresses by path length.
type RouteLookup interface {
	PortLookup
	RouteFor(a netaddr.Addr) (bgp.Route, bool)
}

// Displaced implements §3.1: a mobility event from one address to another
// displaces the endpoint with respect to a router iff the two addresses'
// longest-prefix matches point to different output ports. Events where
// either address has no route are not displacements (the paper's RIBs cover
// the full address space, so this arises only in truncated test tables).
func Displaced(r PortLookup, from, to netaddr.Addr) bool {
	p1, ok1 := r.Port(from)
	p2, ok2 := r.Port(to)
	return ok1 && ok2 && p1 != p2
}

// UpdateStats aggregates update-cost measurements at one router.
type UpdateStats struct {
	Events  int
	Updates int
}

// Rate returns Updates/Events (0 for an empty measurement).
func (s UpdateStats) Rate() float64 {
	if s.Events == 0 {
		return 0
	}
	return float64(s.Updates) / float64(s.Events)
}

// Add merges another measurement into s.
func (s *UpdateStats) Add(o UpdateStats) {
	s.Events += o.Events
	s.Updates += o.Updates
}

// DeviceUpdateStats measures the fraction of device mobility events that
// induce a forwarding update at router r — the quantity plotted per
// collector in Figure 8. It looks both addresses up per event, so it also
// serves routers that change while events are evaluated; for fixed FIBs a
// MoveSet gives the same counts resolving each distinct address once.
func DeviceUpdateStats(r PortLookup, events []mobility.MoveEvent) UpdateStats {
	var s UpdateStats
	for _, e := range events {
		s.Events++
		if Displaced(r, e.From.Addr, e.To.Addr) {
			s.Updates++
		}
	}
	return s
}

// Strategy selects among the §3.3.1 forwarding strategies.
type Strategy uint8

// Forwarding strategies.
const (
	// BestPort forwards on the single best output port; an update happens
	// when the best port changes.
	BestPort Strategy = iota
	// ControlledFlooding forwards on every eligible port; an update happens
	// when the set of eligible ports changes.
	ControlledFlooding
	// UnionFlooding is the §3.3.3 strategy: the router floods across the
	// ports of the union of all addresses ever observed, so an update
	// happens only when a never-before-seen port appears.
	UnionFlooding
)

// String names the strategy.
func (st Strategy) String() string {
	switch st {
	case BestPort:
		return "best-port"
	case ControlledFlooding:
		return "controlled-flooding"
	case UnionFlooding:
		return "union-flooding"
	}
	return "strategy-" + strconv.Itoa(int(st))
}

// PortSet returns the sorted set of eligible output ports for an address
// set: F(R, d, t) in the paper's notation. Addresses without a route are
// skipped.
func PortSet(r PortLookup, addrs []netaddr.Addr) []int {
	seen := map[int]bool{}
	for _, a := range addrs {
		if p, ok := r.Port(a); ok {
			seen[p] = true
		}
	}
	out := make([]int, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// portSetKey canonicalizes a port set for use as a comparable table value.
func portSetKey(ports []int) string {
	var b strings.Builder
	for i, p := range ports {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(p))
	}
	return b.String()
}

// BestPortOf implements best(FIB(R, d, t)): the output port of the
// minimum-cost address, where cost is (AS-path length of the selected
// route, next-hop AS, address) — a deterministic "closest copy first"
// order. The boolean is false when no address has a route.
func BestPortOf(r RouteLookup, addrs []netaddr.Addr) (int, bool) {
	best := -1
	bestLen := 0
	var bestAddr netaddr.Addr
	found := false
	for _, a := range addrs {
		rt, ok := r.RouteFor(a)
		if !ok {
			continue
		}
		l := rt.PathLen()
		if !found ||
			l < bestLen ||
			(l == bestLen && rt.NextHop < best) ||
			(l == bestLen && rt.NextHop == best && a < bestAddr) {
			best, bestLen, bestAddr, found = rt.NextHop, l, a, true
		}
	}
	return best, found
}

// ContentUpdated implements the §3.3.1 update-cost definition for a single
// mobility event Addrs(d, t1) -> Addrs(d, t2) under the given strategy
// (UnionFlooding is stateful; use ContentUpdateStats for it).
func ContentUpdated(r RouteLookup, before, after []netaddr.Addr, st Strategy) bool {
	switch st {
	case BestPort:
		b1, ok1 := BestPortOf(r, before)
		b2, ok2 := BestPortOf(r, after)
		return ok1 && ok2 && b1 != b2
	case ControlledFlooding:
		s1 := PortSet(r, before)
		s2 := PortSet(r, after)
		return portSetKey(s1) != portSetKey(s2)
	default:
		panic("core: ContentUpdated does not support stateful strategies")
	}
}

// ContentUpdateStats replays a content timeline against router r and counts
// mobility events inducing an update — the per-collector quantity of
// Figures 11b/11c. For UnionFlooding it tracks the cumulative port set.
func ContentUpdateStats(r RouteLookup, tl *cdn.Timeline, st Strategy) UpdateStats {
	var s UpdateStats
	union := map[int]bool{}
	if st == UnionFlooding {
		for _, p := range PortSet(r, tl.Initial) {
			union[p] = true
		}
	}
	tl.Walk(func(_ cdn.Event, before, after []netaddr.Addr) {
		s.Events++
		switch st {
		case UnionFlooding:
			updated := false
			for _, p := range PortSet(r, after) {
				if !union[p] {
					union[p] = true
					updated = true
				}
			}
			if updated {
				s.Updates++
			}
		default:
			if ContentUpdated(r, before, after, st) {
				s.Updates++
			}
		}
	})
	return s
}

// ContentUpdateStatsAll pools ContentUpdateStats over many timelines.
func ContentUpdateStatsAll(r RouteLookup, tls []cdn.Timeline, st Strategy) UpdateStats {
	var s UpdateStats
	for i := range tls {
		s.Add(ContentUpdateStats(r, &tls[i], st))
	}
	return s
}

// StrategyStats bundles the per-strategy totals of one fused replay.
type StrategyStats struct {
	BestPort UpdateStats
	Flooding UpdateStats
	Union    UpdateStats
}

// Add merges another replay's totals into s.
func (s *StrategyStats) Add(o StrategyStats) {
	s.BestPort.Add(o.BestPort)
	s.Flooding.Add(o.Flooding)
	s.Union.Add(o.Union)
}

// fusedEval is the reusable scratch of the fused replay: two ping-pong
// sorted port sets and the cumulative union set, all plain int slices. The
// map-and-string-key formulation this replaces allocated a port-set map, an
// output slice, and a canonical string per event; the slice formulation
// allocates only while the buffers warm up, so a shard of timelines replays
// with a constant allocation count no matter how many events it holds.
type fusedEval struct {
	ports, prev, union []int
}

// appendPortSet writes the sorted, deduplicated eligible-port set of addrs
// into buf (reusing its capacity) — PortSet without the map and the fresh
// output slice.
func appendPortSet(r PortLookup, addrs []netaddr.Addr, buf []int) []int {
	buf = buf[:0]
	for _, a := range addrs {
		if p, ok := r.Port(a); ok {
			buf = append(buf, p)
		}
	}
	slices.Sort(buf)
	return slices.Compact(buf)
}

// unionAdd merges the sorted port set into the sorted cumulative union,
// reporting whether any never-before-seen port appeared (§3.3.3's update
// condition). Port sets are tiny, so the per-port binary search + insert is
// cheaper than any hashing.
func (f *fusedEval) unionAdd(ports []int) bool {
	grew := false
	for _, p := range ports {
		i, found := slices.BinarySearch(f.union, p)
		if found {
			continue
		}
		f.union = slices.Insert(f.union, i, p)
		grew = true
	}
	return grew
}

// replay is one timeline's fused walk; union state resets per timeline.
func (f *fusedEval) replay(r RouteLookup, tl *cdn.Timeline) StrategyStats {
	var out StrategyStats
	primed := false
	var prevBest int
	var prevBestOK bool
	f.union = f.union[:0]
	tl.Walk(func(_ cdn.Event, before, after []netaddr.Addr) {
		if !primed {
			f.prev = appendPortSet(r, before, f.prev)
			prevBest, prevBestOK = BestPortOf(r, before)
			f.union = append(f.union[:0], f.prev...)
			primed = true
		}
		f.ports = appendPortSet(r, after, f.ports)
		best, bestOK := BestPortOf(r, after)

		out.BestPort.Events++
		if prevBestOK && bestOK && prevBest != best {
			out.BestPort.Updates++
		}
		out.Flooding.Events++
		if !slices.Equal(f.ports, f.prev) {
			out.Flooding.Updates++
		}
		out.Union.Events++
		if f.unionAdd(f.ports) {
			out.Union.Updates++
		}
		f.ports, f.prev = f.prev, f.ports
		prevBest, prevBestOK = best, bestOK
	})
	return out
}

// ContentUpdateStatsFused replays a timeline once and evaluates all three
// §3.3.1 strategies in that single Timeline.Walk. Each event's after-set is
// resolved exactly once and carried into the next event as its before-set,
// so a timeline of n events costs n+1 set resolutions instead of the ~6n a
// strategy-at-a-time replay pays. The counts are identical to running
// ContentUpdateStats once per strategy.
//
//lint:zeroalloc per event after the evaluator's scratch warms up
func ContentUpdateStatsFused(r RouteLookup, tl *cdn.Timeline) StrategyStats {
	var f fusedEval
	return f.replay(r, tl)
}

// ContentUpdateStatsAllFused pools ContentUpdateStatsFused over many
// timelines (union state is per timeline, as in ContentUpdateStatsAll),
// sharing one scratch evaluator so the whole pool replays with a constant
// number of allocations.
//
//lint:zeroalloc per event; one shared scratch across the whole pool
func ContentUpdateStatsAllFused(r RouteLookup, tls []cdn.Timeline) StrategyStats {
	var f fusedEval
	var s StrategyStats
	for i := range tls {
		s.Add(f.replay(r, &tls[i]))
	}
	return s
}

// BestPortTable builds the complete name-forwarding table of §3.3.2 under
// best-port forwarding: every name mapped to its single best output port.
// Names whose addresses have no route are omitted.
func BestPortTable(r RouteLookup, sets map[names.Name][]netaddr.Addr) map[names.Name]int {
	out := make(map[names.Name]int, len(sets))
	for n, addrs := range sets {
		if p, ok := BestPortOf(r, addrs); ok {
			out[n] = p
		}
	}
	return out
}

// FloodPortTable builds the complete table under controlled flooding: every
// name mapped to its canonicalized eligible port set.
func FloodPortTable(r RouteLookup, sets map[names.Name][]netaddr.Addr) map[names.Name]string {
	out := make(map[names.Name]string, len(sets))
	for n, addrs := range sets {
		ports := PortSet(r, addrs)
		if len(ports) > 0 {
			out[n] = portSetKey(ports)
		}
	}
	return out
}

// AggregateabilityBestPort computes the §3.3.2 aggregateability metric (the
// ratio of complete to LPM table size) at router r under best-port
// forwarding — Figure 12's per-collector quantity.
func AggregateabilityBestPort(r RouteLookup, sets map[names.Name][]netaddr.Addr) float64 {
	return names.Aggregateability(BestPortTable(r, sets))
}

// AggregateabilityFlooding is the controlled-flooding analogue.
func AggregateabilityFlooding(r RouteLookup, sets map[names.Name][]netaddr.Addr) float64 {
	return names.Aggregateability(FloodPortTable(r, sets))
}
