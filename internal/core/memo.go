package core

import (
	"locind/internal/bgp"
	"locind/internal/netaddr"
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
}

type memoEntry struct {
	rt bgp.Route
	ok bool
}

// NewMemo resolves every address in addrs against r once and serves later
// lookups from the resulting table. With no addresses every lookup falls
// through to r.
func NewMemo(r RouteLookup, addrs ...netaddr.Addr) *Memo {
	m := &Memo{r: r, table: make(map[netaddr.Addr]memoEntry, len(addrs))}
	for _, a := range addrs {
		rt, ok := r.RouteFor(a)
		m.table[a] = memoEntry{rt: rt, ok: ok}
	}
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
		return ent.rt, ent.ok
	}
	return m.r.RouteFor(a)
}
