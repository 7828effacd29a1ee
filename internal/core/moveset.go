package core

import (
	"slices"

	"locind/internal/bgp"
	"locind/internal/mobility"
	"locind/internal/netaddr"
)

// MoveSet is a device event list interned for offline evaluation: the
// sorted distinct addresses the events touch, and each event as a (from,
// to) pair of indices into them. An evaluation against fixed FIBs resolves
// each distinct address once per FIB (Ports) and then counts
// displacements by ID (CountMoves), instead of paying two trie descents
// per event per FIB as DeviceUpdateStats does. DeviceUpdateStats stays the
// path for routers whose table changes while events are evaluated, and the
// reference the batched counts must equal.
type MoveSet struct {
	Addrs []netaddr.Addr
	Moves [][2]int32
}

// NewMoveSet interns events, preserving their order in Moves.
func NewMoveSet(events []mobility.MoveEvent) MoveSet {
	addrs := make([]netaddr.Addr, 0, 2*len(events))
	for _, e := range events {
		addrs = append(addrs, e.From.Addr, e.To.Addr)
	}
	slices.Sort(addrs)
	addrs = slices.Compact(addrs)
	id := func(a netaddr.Addr) int32 {
		i, _ := slices.BinarySearch(addrs, a)
		return int32(i)
	}
	moves := make([][2]int32, len(events))
	for i, e := range events {
		moves[i] = [2]int32{id(e.From.Addr), id(e.To.Addr)}
	}
	return MoveSet{Addrs: addrs, Moves: moves}
}

// Ports resolves every address of the set at fib in one batched walk:
// ports[id] is the output port of Addrs[id], or −1 where fib has no route.
func (s MoveSet) Ports(fib *bgp.FIB) []int32 {
	ports := make([]int32, len(s.Addrs))
	fib.PortsSorted(s.Addrs, ports)
	return ports
}

// Stats is DeviceUpdateStats over the whole set at one fixed FIB.
func (s MoveSet) Stats(fib *bgp.FIB) UpdateStats {
	return CountMoves(s.Ports(fib), s.Moves)
}

// CountMoves applies Displaced's rule by ID: a move is an update iff both
// ends have a route (port ≥ 0) and the ports differ. moves may be any
// subset of a MoveSet's Moves, ports that set's Ports at one FIB.
//
//lint:zeroalloc per move; reads two resolved ports and compares them
func CountMoves(ports []int32, moves [][2]int32) UpdateStats {
	s := UpdateStats{Events: len(moves)}
	for _, m := range moves {
		p1, p2 := ports[m[0]], ports[m[1]]
		if p1 >= 0 && p2 >= 0 && p1 != p2 {
			s.Updates++
		}
	}
	return s
}
