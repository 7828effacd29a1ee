package netaddr

// Trie is a binary radix trie mapping IPv4 prefixes to values of type V. It
// supports exact insertion/removal, longest-prefix-match lookup, and ordered
// walks. The zero value is an empty trie ready for use.
//
// The implementation is a straightforward path-per-bit binary trie: lookups
// cost at most 32 node visits, which is plenty for FIBs with a few hundred
// thousand entries and keeps the code auditable. Nodes are allocated from a
// flat slice to keep the structure compact and GC-friendly.
type Trie[V any] struct {
	nodes []trieNode[V]
	size  int
}

type trieNode[V any] struct {
	child [2]int32 // index into nodes, 0 = none (node 0 is the root)
	val   V
	set   bool
}

func (t *Trie[V]) root() int32 {
	if len(t.nodes) == 0 {
		t.nodes = append(t.nodes, trieNode[V]{})
	}
	return 0
}

// Len returns the number of prefixes stored in the trie.
func (t *Trie[V]) Len() int { return t.size }

// Grow pre-sizes the node arena for roughly n additional prefixes, so bulk
// builders (FIB derivation inserts every prefix of a RIB in one pass) avoid
// the append-doubling reallocations of growing the arena a node at a time.
// The estimate charges each prefix its full bit depth minus the shared stem;
// it only ever reserves capacity, never shrinks.
func (t *Trie[V]) Grow(n int) {
	if n <= 0 {
		return
	}
	t.root()
	// Prefixes in one table share long stems; 24 nodes per prefix is a
	// generous estimate that still stays within small multiples of the
	// final size for realistic FIBs.
	need := len(t.nodes) + n*24
	if cap(t.nodes) >= need {
		return
	}
	ns := make([]trieNode[V], len(t.nodes), need)
	copy(ns, t.nodes)
	t.nodes = ns
}

// Insert associates v with prefix p, replacing any existing value. It reports
// whether the prefix was newly inserted (false means replaced).
func (t *Trie[V]) Insert(p Prefix, v V) bool {
	n := t.root()
	a := p.Addr()
	for i := 0; i < p.Bits(); i++ {
		b := a.Bit(i)
		if t.nodes[n].child[b] == 0 {
			t.nodes = append(t.nodes, trieNode[V]{})
			t.nodes[n].child[b] = int32(len(t.nodes) - 1)
		}
		n = t.nodes[n].child[b]
	}
	fresh := !t.nodes[n].set
	t.nodes[n].val = v
	t.nodes[n].set = true
	if fresh {
		t.size++
	}
	return fresh
}

// Get returns the value stored for exactly prefix p.
func (t *Trie[V]) Get(p Prefix) (V, bool) {
	var zero V
	if len(t.nodes) == 0 {
		return zero, false
	}
	n := int32(0)
	a := p.Addr()
	for i := 0; i < p.Bits(); i++ {
		n = t.nodes[n].child[a.Bit(i)]
		if n == 0 {
			return zero, false
		}
	}
	if !t.nodes[n].set {
		return zero, false
	}
	return t.nodes[n].val, true
}

// Remove deletes the exact prefix p, reporting whether it was present. Nodes
// are not physically reclaimed (the trie is append-only internally), which is
// fine for our workloads where removals are rare.
func (t *Trie[V]) Remove(p Prefix) bool {
	if len(t.nodes) == 0 {
		return false
	}
	n := int32(0)
	a := p.Addr()
	for i := 0; i < p.Bits(); i++ {
		n = t.nodes[n].child[a.Bit(i)]
		if n == 0 {
			return false
		}
	}
	if !t.nodes[n].set {
		return false
	}
	var zero V
	t.nodes[n].set = false
	t.nodes[n].val = zero
	t.size--
	return true
}

// Lookup performs longest-prefix matching for address a, returning the value
// of the most specific covering prefix.
//
//lint:zeroalloc per probe; sits on the innermost loop of every strategy replay
func (t *Trie[V]) Lookup(a Addr) (V, bool) {
	var best V
	found := false
	if len(t.nodes) == 0 {
		return best, false
	}
	n := int32(0)
	if t.nodes[0].set {
		best, found = t.nodes[0].val, true
	}
	for i := 0; i < 32; i++ {
		n = t.nodes[n].child[a.Bit(i)]
		if n == 0 {
			break
		}
		if t.nodes[n].set {
			best, found = t.nodes[n].val, true
		}
	}
	return best, found
}

// LookupSorted is Lookup over a whole batch: addrs must be sorted
// ascending (duplicates allowed), and fn receives consecutive runs
// addrs[lo:hi] that share one longest match, with that match's value.
// One recursive descent splits the slice on each bit and carries the
// deepest set ancestor down, so each trie node is visited at most once per
// batch instead of once per address, and every index is reported exactly
// once.
func (t *Trie[V]) LookupSorted(addrs []Addr, fn func(lo, hi int, v V, ok bool)) {
	if len(addrs) == 0 {
		return
	}
	if len(t.nodes) == 0 {
		var zero V
		fn(0, len(addrs), zero, false)
		return
	}
	t.lookupSorted(0, 0, -1, addrs, 0, fn)
}

// lookupSorted resolves addrs (offset off in the caller's slice), which all
// share node n's depth-bit path; best is the deepest set node above n, or
// -1.
func (t *Trie[V]) lookupSorted(n int32, depth int, best int32, addrs []Addr, off int, fn func(lo, hi int, v V, ok bool)) {
	nd := &t.nodes[n]
	if nd.set {
		best = n
	}
	emit := func(lo, hi int) {
		if best < 0 {
			var zero V
			fn(lo, hi, zero, false)
			return
		}
		fn(lo, hi, t.nodes[best].val, true)
	}
	if depth == 32 || nd.child == [2]int32{} {
		emit(off, off+len(addrs))
		return
	}
	// The addresses agree on their first depth bits, so the ones with bit
	// depth clear come first: binary-search the split.
	bit := Addr(1) << (31 - depth)
	k, hi := 0, len(addrs)
	for k < hi {
		mid := int(uint(k+hi) >> 1)
		if addrs[mid]&bit == 0 {
			k = mid + 1
		} else {
			hi = mid
		}
	}
	for b, part := range [2][]Addr{addrs[:k], addrs[k:]} {
		if len(part) == 0 {
			continue
		}
		lo := off + b*k
		if c := nd.child[b]; c != 0 {
			t.lookupSorted(c, depth+1, best, part, lo, fn)
		} else {
			emit(lo, lo+len(part))
		}
	}
}

// LookupPrefix is like Lookup but also returns the matching prefix itself.
func (t *Trie[V]) LookupPrefix(a Addr) (Prefix, V, bool) {
	var bestV V
	var bestP Prefix
	found := false
	if len(t.nodes) == 0 {
		return bestP, bestV, false
	}
	n := int32(0)
	if t.nodes[0].set {
		bestP, bestV, found = MakePrefix(0, 0), t.nodes[0].val, true
	}
	for i := 0; i < 32; i++ {
		n = t.nodes[n].child[a.Bit(i)]
		if n == 0 {
			break
		}
		if t.nodes[n].set {
			bestP, bestV, found = MakePrefix(a, i+1), t.nodes[n].val, true
		}
	}
	return bestP, bestV, found
}

// Parent returns the value of the longest strict ancestor prefix of p that is
// present in the trie, i.e. what an address in p would match if p itself were
// removed.
func (t *Trie[V]) Parent(p Prefix) (Prefix, V, bool) {
	var bestV V
	var bestP Prefix
	found := false
	if len(t.nodes) == 0 {
		return bestP, bestV, false
	}
	n := int32(0)
	if t.nodes[0].set && p.Bits() > 0 {
		bestP, bestV, found = MakePrefix(0, 0), t.nodes[0].val, true
	}
	a := p.Addr()
	for i := 0; i < p.Bits()-1; i++ {
		n = t.nodes[n].child[a.Bit(i)]
		if n == 0 {
			break
		}
		if t.nodes[n].set {
			bestP, bestV, found = MakePrefix(a, i+1), t.nodes[n].val, true
		}
	}
	return bestP, bestV, found
}

// Walk visits every stored prefix in lexicographic (address, then length)
// trie order. Returning false from fn stops the walk.
func (t *Trie[V]) Walk(fn func(Prefix, V) bool) {
	if len(t.nodes) == 0 {
		return
	}
	t.walk(0, 0, 0, fn)
}

func (t *Trie[V]) walk(n int32, addr Addr, depth int, fn func(Prefix, V) bool) bool {
	nd := &t.nodes[n]
	if nd.set {
		if !fn(MakePrefix(addr, depth), nd.val) {
			return false
		}
	}
	if depth == 32 {
		return true
	}
	if c := nd.child[0]; c != 0 {
		if !t.walk(c, addr, depth+1, fn) {
			return false
		}
	}
	if c := nd.child[1]; c != 0 {
		if !t.walk(c, addr|Addr(1)<<(31-depth), depth+1, fn) {
			return false
		}
	}
	return true
}

// Prefixes returns all stored prefixes in walk order.
func (t *Trie[V]) Prefixes() []Prefix {
	out := make([]Prefix, 0, t.size)
	t.Walk(func(p Prefix, _ V) bool {
		out = append(out, p)
		return true
	})
	return out
}
