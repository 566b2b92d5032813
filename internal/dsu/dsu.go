// Package dsu implements a fast disjoint-set (union-find) data structure
// with union by rank and path compression, following CLRS chapter 21, which
// is the structure the Peer-Set and SP+ algorithms use to maintain their
// "bags" of procedure IDs. Each set root carries an opaque payload (the bag
// descriptor), so FindBag is a Find plus one pointer chase.
//
// Amortized cost per operation is O(alpha(n)), Tarjan's functional inverse
// of Ackermann's function, which is the alpha that appears in the paper's
// Theorem 1 and Theorem 5 running-time bounds.
package dsu

// Elem is the handle for one element of the universe. Elements are created
// by Forest.MakeSet and are meaningful only with the Forest that made them.
type Elem int32

// None is the zero Elem sentinel for "no element". MakeSet never returns it.
const None Elem = -1

type node struct {
	parent Elem
	rank   int8
}

// Forest is a collection of disjoint sets over elements it has created.
// The zero value is an empty forest ready for use.
type Forest struct {
	nodes   []node
	payload []any // payload[root] is the set's bag descriptor; nil elsewhere
	finds   uint64
	unions  uint64
}

// NewForest returns a forest with capacity preallocated for n elements.
func NewForest(n int) *Forest {
	return &Forest{
		nodes:   make([]node, 0, n),
		payload: make([]any, 0, n),
	}
}

// Len reports how many elements have been created.
func (f *Forest) Len() int { return len(f.nodes) }

// MakeSet creates a fresh singleton set and returns its element. The new
// set's payload is p.
func (f *Forest) MakeSet(p any) Elem {
	e := Elem(len(f.nodes))
	f.nodes = append(f.nodes, node{parent: e})
	f.payload = append(f.payload, p)
	return e
}

// Find returns the representative (root) of the set containing e,
// compressing the path along the way.
func (f *Forest) Find(e Elem) Elem {
	f.finds++
	root := e
	for f.nodes[root].parent != root {
		root = f.nodes[root].parent
	}
	for f.nodes[e].parent != root {
		e, f.nodes[e].parent = f.nodes[e].parent, root
	}
	return root
}

// Payload returns the payload attached to the set containing e.
func (f *Forest) Payload(e Elem) any {
	return f.payload[f.Find(e)]
}

// SetPayload replaces the payload of the set containing e.
func (f *Forest) SetPayload(e Elem, p any) {
	f.payload[f.Find(e)] = p
}

// Union merges the set containing src into the set containing dst and
// returns the new root. The payload of dst's set survives; src's payload is
// dropped. This directed flavour is what the bag algorithms need: "union bag
// B into bag A" keeps A's identity (its kind and view ID).
func (f *Forest) Union(dst, src Elem) Elem {
	f.unions++
	rd, rs := f.Find(dst), f.Find(src)
	if rd == rs {
		return rd
	}
	keep := f.payload[rd]
	// Union by rank, then make sure the surviving root carries dst's payload.
	var root Elem
	if f.nodes[rd].rank < f.nodes[rs].rank {
		f.nodes[rd].parent = rs
		root = rs
	} else if f.nodes[rd].rank > f.nodes[rs].rank {
		f.nodes[rs].parent = rd
		root = rd
	} else {
		f.nodes[rs].parent = rd
		f.nodes[rd].rank++
		root = rd
	}
	f.payload[rd] = nil
	f.payload[rs] = nil
	f.payload[root] = keep
	return root
}

// Same reports whether a and b are in the same set.
func (f *Forest) Same(a, b Elem) bool { return f.Find(a) == f.Find(b) }

// Stats reports the number of Find and Union operations performed, for the
// harness's accounting of detector work.
func (f *Forest) Stats() (finds, unions uint64) { return f.finds, f.unions }

// Clone returns a structurally independent copy of the forest: parent
// links, ranks, payload slots and operation counters. Payload values are
// copied shallowly — callers whose payloads are mutable pointers (the bag
// detectors) must remap them afterward.
func (f *Forest) Clone() *Forest {
	return &Forest{
		nodes:   append(make([]node, 0, len(f.nodes)), f.nodes...),
		payload: append(make([]any, 0, len(f.payload)), f.payload...),
		finds:   f.finds,
		unions:  f.unions,
	}
}

// CopyFrom makes f an independent copy of src, reusing f's slice capacity
// where possible — the pooled-reuse counterpart of Clone.
func (f *Forest) CopyFrom(src *Forest) {
	f.nodes = append(f.nodes[:0], src.nodes...)
	f.payload = append(f.payload[:0], src.payload...)
	f.finds, f.unions = src.finds, src.unions
}

// Payloads gives mutable access to the payload slots (indexed by root
// element) so a Clone caller can remap pointer payloads in place.
func (f *Forest) Payloads() []any { return f.payload }

// Reset empties the forest, keeping allocated capacity for reuse.
func (f *Forest) Reset() {
	f.nodes = f.nodes[:0]
	for i := range f.payload {
		f.payload[i] = nil
	}
	f.payload = f.payload[:0]
	f.finds, f.unions = 0, 0
}
