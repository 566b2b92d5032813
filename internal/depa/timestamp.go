// Package depa is a DePa-style series-parallel order-maintenance oracle
// and the parallel race detector built on it. Each strand of a Cilk
// computation is assigned a (dag-depth, fork-path) timestamp: the fork
// path records, for every fork the strand sits under, the dag depth at
// which that fork occurred and which branch the strand descends from
// (0 = the spawned child, 1 = the continuation). Two timestamps answer
// series/parallel queries by themselves — no disjoint-set forest, no
// shared mutable bags — which is what lets detection shard across workers:
// the SP relation of two accesses depends only on the two timestamps, not
// on any detector state evolved between them (Westrick/Wang/Acar,
// PAPERS.md "Efficient Parallel Determinacy Race Detection").
//
// The precedence rule, with e = (forkDepth, branch) the first entry where
// two fork paths diverge:
//
//   - equal forkDepth: the strands descend from different branches of the
//     same fork instance, which are logically parallel;
//   - different forkDepth: the two fork instances extend a common serial
//     chain — the path popped back to the shared prefix at an intervening
//     sync — so the strand under the shallower fork joined before the
//     deeper fork even occurred: it precedes;
//   - one path a prefix of the other (or equal): the strands share a
//     serial chain and the smaller dag depth precedes.
//
// Recording the fork depth per entry is load-bearing: branch bits alone
// would call a sync block's spawned child (path p·0) parallel with the
// next block's continuation (path p·1), though the sync serialized them.
//
// Fork paths pack into "graduation words": 32-bit entries, two lanes per
// uint64, high lane first, so path comparison scans words — one XOR per
// two forks of nesting — and typical spawn depths resolve in a word or
// two. Precedes/Parallel are O(1) for bounded spawn depth and O(depth/2)
// words in the worst case, against the Θ(α)-amortized forest walks of
// SP-bags.
package depa

import (
	"fmt"
	"strings"
)

// branch values within a path entry.
const (
	branchChild uint32 = 0 // the spawned child side of a fork
	branchCont  uint32 = 1 // the continuation side of a fork
)

// pathEntry packs (forkDepth, branch) as forkDepth<<1|branch. Fork depths
// along one path strictly increase, so entries compare like their fork
// depths once branches tie-break equal depths (child before continuation
// in serial order).
func pathEntry(forkDepth int32, branch uint32) uint32 {
	return uint32(forkDepth)<<1 | branch
}

// Timestamp is one strand's (dag-depth, fork-path) vertex ID. The zero
// value is the root strand: empty path, depth 0. Timestamps are immutable
// once created; the builder copies the packed words out of its mutable
// per-frame path.
type Timestamp struct {
	depth int32
	n     int32    // path entries
	words []uint64 // ceil(n/2) graduation words, two 32-bit lanes each
}

// Depth returns the strand's dag depth.
func (t Timestamp) Depth() int32 { return t.depth }

// PathLen returns the number of fork-path entries (the strand's fork
// nesting depth).
func (t Timestamp) PathLen() int { return int(t.n) }

// entryAt extracts path entry i.
func (t Timestamp) entryAt(i int32) uint32 {
	w := t.words[i>>1]
	if i&1 == 0 {
		return uint32(w >> 32)
	}
	return uint32(w)
}

// pack builds a Timestamp from an unpacked entry slice. The entries are
// copied; the caller's slice stays mutable.
func pack(path []uint32, depth int32) Timestamp {
	n := int32(len(path))
	if n == 0 {
		return Timestamp{depth: depth}
	}
	words := make([]uint64, (n+1)/2)
	for i, e := range path {
		if i&1 == 0 {
			words[i>>1] = uint64(e) << 32
		} else {
			words[i>>1] |= uint64(e)
		}
	}
	return Timestamp{depth: depth, n: n, words: words}
}

// String renders the timestamp for diagnostics: d<depth>[f<fork>·<branch> ...].
func (t Timestamp) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "d%d[", t.depth)
	for i := int32(0); i < t.n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		e := t.entryAt(i)
		fmt.Fprintf(&b, "f%d·%d", e>>1, e&1)
	}
	b.WriteByte(']')
	return b.String()
}

// divergence finds the first path entry where a and b differ, scanning
// graduation words. It returns the entry index and the two entries, or
// ok=false when one path is a prefix of the other (or they are equal).
func divergence(a, b Timestamp) (ea, eb uint32, ok bool) {
	m := a.n
	if b.n < m {
		m = b.n
	}
	mw := int((m + 1) / 2)
	for w := 0; w < mw; w++ {
		x := a.words[w] ^ b.words[w]
		if x == 0 {
			continue
		}
		i := int32(w) << 1
		if x>>32 == 0 { // high lanes agree; divergence in the low lane
			i++
		}
		if i >= m {
			// The differing lane sits past the common length — the tail
			// of the longer path sharing a word with padding zeros.
			return 0, 0, false
		}
		return a.entryAt(i), b.entryAt(i), true
	}
	return 0, 0, false
}

// Parallel reports whether the strands at a and b are logically parallel.
func Parallel(a, b Timestamp) bool {
	ea, eb, ok := divergence(a, b)
	return ok && ea>>1 == eb>>1
}

// Precedes reports whether the strand at a strictly precedes the strand
// at b in the series-parallel order (a ≺ b: every execution runs a's
// instructions before b's).
func Precedes(a, b Timestamp) bool {
	ea, eb, ok := divergence(a, b)
	if ok {
		if ea>>1 == eb>>1 {
			return false // two branches of one fork: parallel
		}
		// Distinct forks extending one serial chain: the shallower fork's
		// subtree joined at a sync before the deeper fork occurred.
		return ea>>1 < eb>>1
	}
	return a.depth < b.depth
}
