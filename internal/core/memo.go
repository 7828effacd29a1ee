package core

import (
	"locind/internal/bgp"
	"locind/internal/netaddr"
	"locind/internal/obs"
)

// Memo is a read-only addr → route table over a RouteLookup. The
// evaluation replays a fixed, known address set against FIBs that never
// change during a run, so instead of caching lazily the caller hands the
// whole set to NewMemo, every address is resolved exactly once up front,
// and the table is never written again. That is the offline counterpart of
// the Loc/ID mapping caches the literature analyzes: a live router caches
// because it cannot enumerate its address space; an evaluation can.
//
// Because the table is immutable after construction, any number of
// goroutines may read one Memo with no lock or atomic. An address outside
// the table falls through to the underlying lookup without being stored;
// the lookup is pure, so the answer is identical either way.
type Memo struct {
	r     RouteLookup
	table map[netaddr.Addr]memoEntry

	// nil-safe obs handles; unobserved memos pay one predictable branch.
	hits, misses *obs.Counter
}

type memoEntry struct {
	rt bgp.Route
	ok bool
}

// MemoMetrics aggregates table behaviour across every memo sharing it.
type MemoMetrics struct {
	Hits   *obs.Counter
	Misses *obs.Counter
}

// NewMemoMetrics registers the memo counter families on reg. A nil
// registry yields all-nil handles.
func NewMemoMetrics(reg *obs.Registry) *MemoMetrics {
	return &MemoMetrics{
		Hits:   reg.Counter("locind_memo_hits_total", "route lookups served from a memo table"),
		Misses: reg.Counter("locind_memo_misses_total", "route lookups resolved against the FIB (table builds and fall-throughs)"),
	}
}

// NewMemo resolves every address in addrs against r once and serves later
// lookups from the resulting table. With no addresses every lookup falls
// through to r.
func NewMemo(r RouteLookup, addrs ...netaddr.Addr) *Memo {
	return NewMemoObserved(r, nil, addrs...)
}

// NewMemoObserved is NewMemo with obs counters: each distinct address in
// the table, and each fall-through, counts as a miss; each lookup served
// from the table counts as a hit. ms may be nil.
func NewMemoObserved(r RouteLookup, ms *MemoMetrics, addrs ...netaddr.Addr) *Memo {
	m := &Memo{r: r, table: make(map[netaddr.Addr]memoEntry, len(addrs))}
	if ms != nil {
		m.hits, m.misses = ms.Hits, ms.Misses
	}
	for _, a := range addrs {
		rt, ok := r.RouteFor(a)
		m.table[a] = memoEntry{rt: rt, ok: ok}
	}
	m.misses.Add(int64(len(m.table)))
	return m
}

// Port returns the output port (next-hop AS) for a.
//
//lint:zeroalloc per lookup; the table is read-only after NewMemo
func (m *Memo) Port(a netaddr.Addr) (int, bool) {
	rt, ok := m.RouteFor(a)
	if !ok {
		return -1, false
	}
	return rt.NextHop, true
}

// RouteFor returns the selected route for a, from the table when a is in
// it and from the underlying lookup otherwise.
//
//lint:zeroalloc per lookup; the table is read-only after NewMemo
func (m *Memo) RouteFor(a netaddr.Addr) (bgp.Route, bool) {
	if ent, hit := m.table[a]; hit {
		m.hits.Inc()
		return ent.rt, ent.ok
	}
	m.misses.Inc()
	return m.r.RouteFor(a)
}
