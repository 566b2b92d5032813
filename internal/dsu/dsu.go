// Package dsu implements a fast disjoint-set (union-find) data structure
// with union by rank and path compression, following CLRS chapter 21, which
// is the structure the Peer-Set and SP+ algorithms use to maintain their
// "bags" of procedure IDs. Each set root carries an int32 payload, which
// Bags, the bag table all three bag detectors keep, sets to the index of
// the bag the set belongs to.
//
// Nodes hold no pointers and live in a chunk.Store: the collector never
// scans the forest, and growing it never copies a node.
//
// Amortized cost per operation is O(alpha(n)), Tarjan's functional inverse
// of Ackermann's function, which is the alpha that appears in the paper's
// Theorem 1 and Theorem 5 running-time bounds.
package dsu

import "repro/internal/chunk"

// Elem is the handle for one element of the universe. Elements are created
// by Forest.MakeSet and are meaningful only with the Forest that made them.
type Elem int32

// None is the zero Elem sentinel for "no element". MakeSet never returns it.
const None Elem = -1

type node struct {
	parent  Elem
	payload int32 // meaningful at a root only
	rank    int8
}

// Forest is a collection of disjoint sets over elements it has created.
// The zero value is an empty forest ready for use.
type Forest struct {
	nodes  chunk.Store[node]
	finds  uint64
	unions uint64
}

// Len reports how many elements have been created.
func (f *Forest) Len() int { return f.nodes.Len() }

// MakeSet creates a fresh singleton set and returns its element. The new
// set's payload is -1 until setPayload or a Union gives it one.
func (f *Forest) MakeSet() Elem {
	e := Elem(f.nodes.Len())
	f.nodes.Append(node{parent: e, payload: -1})
	return e
}

// Find returns the representative (root) of the set containing e,
// compressing the path along the way.
func (f *Forest) Find(e Elem) Elem {
	f.finds++
	root := e
	for p := f.nodes.At(int32(root)).parent; p != root; p = f.nodes.At(int32(root)).parent {
		root = p
	}
	for e != root {
		n := f.nodes.At(int32(e))
		e, n.parent = n.parent, root
	}
	return root
}

// payload returns the payload attached to the set containing e.
func (f *Forest) payload(e Elem) int32 {
	return f.nodes.At(int32(f.Find(e))).payload
}

// setPayload replaces the payload of the set containing e.
func (f *Forest) setPayload(e Elem, p int32) {
	f.nodes.At(int32(f.Find(e))).payload = p
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
	nd, ns := f.nodes.At(int32(rd)), f.nodes.At(int32(rs))
	// Union by rank; the surviving root carries dst's payload.
	switch {
	case nd.rank < ns.rank:
		nd.parent = rs
		ns.payload = nd.payload
		return rs
	case nd.rank == ns.rank:
		nd.rank++
	}
	ns.parent = rd
	return rd
}

// Same reports whether a and b are in the same set.
func (f *Forest) Same(a, b Elem) bool { return f.Find(a) == f.Find(b) }

// Stats reports the number of Find and Union operations performed, for the
// harness's accounting of detector work.
func (f *Forest) Stats() (finds, unions uint64) { return f.finds, f.unions }

// CopyFrom makes f an independent copy of src, operation counters
// included, reusing f's chunks where possible.
func (f *Forest) CopyFrom(src *Forest) {
	f.nodes.CopyFrom(&src.nodes)
	f.finds, f.unions = src.finds, src.unions
}

// Reset empties the forest, keeping allocated chunks for reuse.
func (f *Forest) Reset() {
	f.nodes.Reset()
	f.finds, f.unions = 0, 0
}
