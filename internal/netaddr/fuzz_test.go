package netaddr

import (
	"slices"
	"testing"
)

// FuzzLPMLookup drives the radix trie with an arbitrary insert/remove
// script and cross-checks every lookup against a naive linear scan over a
// reference map: the trie must agree with the definition of longest-prefix
// match on every script the fuzzer invents. The batched LookupSorted runs
// over the same queries, sorted with duplicates kept, and must give every
// index exactly one answer that agrees with the naive scan too.
//
// Script encoding: each 5-byte chunk is one operation — four address
// octets, then a control byte whose value mod 33 is the prefix length and
// whose high bit selects remove instead of insert.
func FuzzLPMLookup(f *testing.F) {
	// One default route, nested /8 /24 /32 around one address, a removal.
	f.Add([]byte{
		0, 0, 0, 0, 0,
		22, 0, 0, 0, 8,
		22, 33, 44, 0, 24,
		22, 33, 44, 55, 32,
		22, 33, 44, 0, 24 | 0x80,
	})
	// Sibling /25s and a query-heavy tail.
	f.Add([]byte{
		10, 0, 0, 0, 25,
		10, 0, 0, 128, 25,
		10, 0, 0, 0, 8,
		10, 0, 0, 129, 32,
	})
	// An unrouted address next to a default route: 0/0 and 99/8 come and
	// go again, so 99.1.2.3 and 0.0.0.0 end unrouted under an unset root
	// while the neighbouring 98/8 still routes.
	f.Add([]byte{
		0, 0, 0, 0, 0,
		99, 1, 2, 3, 8,
		0, 0, 0, 0, 0x80,
		98, 0, 0, 0, 8,
		99, 1, 2, 3, 0x80 | 8,
	})
	// A lone /32 among duplicate queries of itself and its neighbours.
	f.Add([]byte{
		7, 7, 7, 7, 32,
		7, 7, 7, 7, 32,
		7, 7, 7, 6, 31 | 0x80,
		7, 7, 7, 8, 31 | 0x80,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		var tr Trie[int]
		ref := map[Prefix]int{}
		var queries []Addr
		for i := 0; i+5 <= len(data); i += 5 {
			a := MakeAddr(data[i], data[i+1], data[i+2], data[i+3])
			ctl := data[i+4]
			p := MakePrefix(a, int(ctl%33))
			queries = append(queries, a)
			if ctl&0x80 != 0 {
				_, present := ref[p]
				if removed := tr.Remove(p); removed != present {
					t.Fatalf("Remove(%v) = %v, reference had it: %v", p, removed, present)
				}
				delete(ref, p)
			} else {
				_, present := ref[p]
				if fresh := tr.Insert(p, i); fresh == present {
					t.Fatalf("Insert(%v) fresh = %v, reference had it: %v", p, fresh, present)
				}
				ref[p] = i
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("Len() = %d, reference holds %d prefixes", tr.Len(), len(ref))
		}
		for p, v := range ref {
			if got, ok := tr.Get(p); !ok || got != v {
				t.Fatalf("Get(%v) = %d, %v; reference holds %d", p, got, ok, v)
			}
		}
		queries = append(queries, 0, 1<<31, ^Addr(0))
		for _, q := range queries {
			wantP, wantV, wantOK := naiveLPM(ref, q)
			gotP, gotV, gotOK := tr.LookupPrefix(q)
			if gotOK != wantOK || gotP != wantP || gotV != wantV {
				t.Fatalf("LookupPrefix(%v) = %v, %d, %v; naive scan says %v, %d, %v",
					q, gotP, gotV, gotOK, wantP, wantV, wantOK)
			}
			v, ok := tr.Lookup(q)
			if ok != wantOK || v != wantV {
				t.Fatalf("Lookup(%v) = %d, %v; naive scan says %d, %v", q, v, ok, wantV, wantOK)
			}
		}
		slices.Sort(queries)
		seen := make([]int, len(queries))
		tr.LookupSorted(queries, func(lo, hi int, v int, ok bool) {
			for i := lo; i < hi; i++ {
				seen[i]++
				_, wantV, wantOK := naiveLPM(ref, queries[i])
				if ok != wantOK || v != wantV {
					t.Fatalf("LookupSorted answered %v with %d, %v; naive scan says %d, %v",
						queries[i], v, ok, wantV, wantOK)
				}
			}
		})
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("LookupSorted answered %v (index %d) %d times, want once", queries[i], i, n)
			}
		}
	})
}

// naiveLPM is the specification: the longest (most-specific) reference
// prefix containing a. At most one prefix of each length can contain a, so
// map iteration order cannot affect the result.
func naiveLPM(ref map[Prefix]int, a Addr) (Prefix, int, bool) {
	var bestP Prefix
	bestV := 0
	found := false
	for p, v := range ref {
		if p.Contains(a) && (!found || p.Bits() > bestP.Bits()) {
			bestP, bestV, found = p, v, true
		}
	}
	return bestP, bestV, found
}
