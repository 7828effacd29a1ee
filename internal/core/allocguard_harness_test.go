package core

import (
	"testing"

	"locind/internal/cdn"
	"locind/internal/netaddr"
)

// guardTimeline mirrors the cdn test helper: a two-address set where every
// event retires the previously added address and introduces a fresh one.
func guardTimeline(events int) cdn.Timeline {
	tl := cdn.Timeline{Hours: events + 2, Initial: []netaddr.Addr{10, 20}}
	for i := 0; i < events; i++ {
		ev := cdn.Event{Hour: i + 1, Added: []netaddr.Addr{netaddr.Addr(1000 + i)}}
		if i == 0 {
			ev.Removed = []netaddr.Addr{10}
		} else {
			ev.Removed = []netaddr.Addr{netaddr.Addr(1000 + i - 1)}
		}
		tl.Events = append(tl.Events, ev)
	}
	return tl
}

// guardRouter covers every guardTimeline address with a default route plus
// one more-specific, so best-port answers and displacement checks both
// exercise real FIB lookups.
func guardRouter() RouteLookup {
	return fakeRouter(map[string]int{
		"0.0.0.0/0": 3,
		"0.0.0.0/8": 5,
	})
}

// allocGuardHarness maps each //lint:zeroalloc symbol in this package to
// its measurement, consumed by the generated TestAllocGuard. The fused
// replays allocate fixed per-call scratch, so their measurements are
// differential (large minus small workload); a Memo table lookup and the
// move-set counting loop must be absolutely allocation-free.
func allocGuardHarness() map[string]func(t *testing.T) float64 {
	return map[string]func(t *testing.T) float64{
		"ContentUpdateStatsFused": func(t *testing.T) float64 {
			r := guardRouter()
			small, large := guardTimeline(16), guardTimeline(512)
			fusedAllocs := func(tl *cdn.Timeline) float64 {
				return testing.AllocsPerRun(10, func() {
					if s := ContentUpdateStatsFused(r, tl); s.BestPort.Events != len(tl.Events) {
						t.Fatalf("fused replay saw %d events, want %d", s.BestPort.Events, len(tl.Events))
					}
				})
			}
			return fusedAllocs(&large) - fusedAllocs(&small)
		},
		"ContentUpdateStatsAllFused": func(t *testing.T) float64 {
			r := guardRouter()
			pool := func(events int) []cdn.Timeline {
				tls := make([]cdn.Timeline, 8)
				for i := range tls {
					tls[i] = guardTimeline(events)
				}
				return tls
			}
			small, large := pool(16), pool(512)
			poolAllocs := func(tls []cdn.Timeline) float64 {
				return testing.AllocsPerRun(10, func() {
					if s := ContentUpdateStatsAllFused(r, tls); s.BestPort.Events == 0 {
						t.Fatal("pooled replay saw no events")
					}
				})
			}
			return poolAllocs(large) - poolAllocs(small)
		},
		"CountMoves": func(t *testing.T) float64 {
			ports := []int32{3, 5, -1, 5}
			moves := [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {1, 3}}
			return testing.AllocsPerRun(100, func() {
				if s := CountMoves(ports, moves); s.Updates != 2 {
					t.Fatalf("counted %d updates, want 2", s.Updates)
				}
			})
		},
		"Memo.Port": func(t *testing.T) float64 {
			addrs := []netaddr.Addr{10, 20, 1000, 2000, 3000}
			m := NewMemo(guardRouter(), addrs...)
			return testing.AllocsPerRun(100, func() {
				for _, a := range addrs {
					if _, ok := m.Port(a); !ok {
						t.Fatalf("no port for %v", a)
					}
				}
			})
		},
		"Memo.RouteFor": func(t *testing.T) float64 {
			addrs := []netaddr.Addr{10, 20, 1000, 2000, 3000}
			m := NewMemo(guardRouter(), addrs...)
			return testing.AllocsPerRun(100, func() {
				for _, a := range addrs {
					if _, ok := m.RouteFor(a); !ok {
						t.Fatalf("no route for %v", a)
					}
				}
			})
		},
	}
}
