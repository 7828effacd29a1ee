package core

import (
	"sort"

	"locind/internal/asgraph"
	"locind/internal/bgp"
	"locind/internal/iplane"
	"locind/internal/mobility"
)

// Architecture identifies one of the three puristic approaches of §2.
type Architecture uint8

// The three puristic architectures.
const (
	// Indirection routes all traffic through a home agent that tracks the
	// endpoint's current address (Mobile IP, GSM HLR, i3).
	Indirection Architecture = iota
	// Resolution resolves names to current addresses through an
	// extra-network service before communicating (DNS, GNS, LISP, HIP).
	Resolution
	// NameRouting routes directly on names at every router (TRIAD, ROFL,
	// NDN, SEATTLE).
	NameRouting
)

// String names the architecture.
func (a Architecture) String() string {
	switch a {
	case Indirection:
		return "indirection"
	case Resolution:
		return "name-resolution"
	case NameRouting:
		return "name-based-routing"
	}
	return "unknown"
}

// DeviceCosts is the §6 cost-benefit readout for one architecture over a
// device-mobility workload.
type DeviceCosts struct {
	Arch Architecture

	// UpdatesPerEvent is the expected number of updated entities per
	// mobility event: exactly 1 (the home agent or the resolution service)
	// for the addressing-assisted architectures; the expected number of
	// impacted routers for name-based routing.
	UpdatesPerEvent float64

	// RouterUpdateRate maps each evaluated router to the fraction of events
	// inducing an update there (name-based routing only).
	RouterUpdateRate map[string]float64

	// StretchASHops is the expected additive data-path stretch in AS hops
	// (indirection's triangle-routing penalty; zero for the others).
	StretchASHops float64

	// ExtraFIBFraction estimates the fraction of endpoints for which a
	// router holds an extra displaced-entry at any time (name-based
	// routing; §6.2.2's ≈1% back-of-the-envelope).
	ExtraFIBFraction float64
}

// EvaluateDeviceArchitecture computes the device-mobility costs of one
// architecture against the measured workload. collectors are the evaluated
// routers (used by NameRouting only); pairs and awayFrac feed the
// indirection stretch estimate.
func EvaluateDeviceArchitecture(
	arch Architecture,
	g *asgraph.Graph,
	collectors []*bgp.Collector,
	events []mobility.MoveEvent,
	pairs []mobility.DominantPair,
) DeviceCosts {
	out := DeviceCosts{Arch: arch}
	switch arch {
	case Indirection:
		out.UpdatesPerEvent = 1
		hops := IndirectionStretchHops(g, pairs)
		if len(hops) > 0 {
			sum := 0.0
			for _, h := range hops {
				sum += h
			}
			out.StretchASHops = sum / float64(len(hops))
		}
	case Resolution:
		out.UpdatesPerEvent = 1
	case NameRouting:
		out.RouterUpdateRate = map[string]float64{}
		// Expected updates per event across the evaluated routers is the
		// sum of per-router update rates.
		sum := 0.0
		moves := NewMoveSet(events)
		for _, c := range collectors {
			rate := moves.Stats(c.FIB).Rate()
			out.RouterUpdateRate[c.Name] = rate
			sum += rate
		}
		if len(collectors) > 0 {
			out.UpdatesPerEvent = sum
			out.ExtraFIBFraction = ExtraFIBFraction(sum/float64(len(collectors)), awayFraction(pairs))
		}
	}
	return out
}

// awayFraction estimates the average fraction of a day endpoints spend away
// from their dominant AS, used by the displaced-entry estimate. Each
// DominantPair carries the dwell fraction of one non-dominant AS for one
// user-day, so the per-user-day away time is the per-pair mean scaled by
// the average number of pairs per user-day; we approximate the latter by 2
// (home/work/cellular days contribute two non-dominant ASes).
func awayFraction(pairs []mobility.DominantPair) float64 {
	if len(pairs) == 0 {
		return 0.3 // the paper's ballpark
	}
	sum := 0.0
	for _, p := range pairs {
		sum += p.DwellFrac
	}
	frac := sum / float64(len(pairs)) * 2
	if frac > 1 {
		frac = 1
	}
	return frac
}

// IndirectionStretchHops returns, for each dominant→visited displacement,
// the AS-hop distance between home (dominant) and current AS on the
// physical topology — the paper's Fig. 10 lower-bound technique. Pairs are
// weighted implicitly by appearing once per user-day.
func IndirectionStretchHops(g *asgraph.Graph, pairs []mobility.DominantPair) []float64 {
	// Group by dominant AS so each BFS is reused.
	byHome := map[int][]int{}
	for _, p := range pairs {
		byHome[p.DominantAS] = append(byHome[p.DominantAS], p.VisitedAS)
	}
	homes := make([]int, 0, len(byHome))
	for h := range byHome {
		homes = append(homes, h)
	}
	// Deterministic order.
	sort.Ints(homes)
	var out []float64
	for _, h := range homes {
		dist := g.ShortestUndirectedHops(h)
		for _, v := range byHome[h] {
			if d := dist[v]; d >= 0 {
				out = append(out, float64(d))
			}
		}
	}
	return out
}

// IndirectionStretchLatency predicts home→current one-way latencies with
// the iPlane substitute; like the paper, only a small fraction of pairs is
// answerable. It returns the answered latencies and the coverage fraction.
func IndirectionStretchLatency(p *iplane.Predictor, pairs []mobility.DominantPair) (lats []float64, coverage float64) {
	if len(pairs) == 0 {
		return nil, 0
	}
	for _, pr := range pairs {
		if lat, ok := p.Query(pr.DominantAS, pr.VisitedAS); ok && pr.DominantAS != pr.VisitedAS {
			lats = append(lats, lat)
		}
	}
	return lats, float64(len(lats)) / float64(len(pairs))
}

// Back-of-the-envelope calculators (§6.2.2 and §7.3).

// UpdateLoadPerSec converts a population of mobile principals, their mean
// mobility-event rate, and the per-event probability of inducing a router
// update into an absolute router update rate per second. The paper's
// example: 2e9 devices × 3 events/day × 3% ⇒ ~2.1K updates/sec.
func UpdateLoadPerSec(principals, eventsPerDay, updateFrac float64) float64 {
	return principals * eventsPerDay * updateFrac / 86400
}

// ExtraFIBFraction estimates the fraction of principals for which a router
// holds a displaced host-route at any instant: the probability an event
// displaces the principal w.r.t. the router times the fraction of time
// spent away from the dominant (aggregated) location. The paper's §6.2.2
// estimate: 3% × 30% ≈ 1%.
func ExtraFIBFraction(updateRate, awayFrac float64) float64 {
	return updateRate * awayFrac
}
