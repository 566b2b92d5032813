// Package chunk provides Store, the append-only sequence behind the
// disjoint-set forest's nodes and the race-report lineage. A slice grown
// one append at a time copies every entry about four times over as it
// grows by a quarter; a Store allocates its entries in chunks and never
// copies one once it is past the first chunk.
package chunk

const (
	bits = 11
	// Size is the number of entries in every chunk after the first.
	Size = 1 << bits
)

// Store is an append-only sequence of T, indexed from 0. The first chunk
// grows by doubling from 256 entries, so a small store holds little more
// than it uses; every later chunk is allocated whole, at Size entries, and
// entries never move. Stores are meant for pointer-free T: Reset keeps old
// entries in place until appends overwrite them. The zero value is empty
// and ready for use.
type Store[T any] struct {
	// chunks are allocated at full length, so an append writes one entry
	// and no slice header. Chunks past the last entry's are kept for
	// reuse after Reset or CopyFrom.
	chunks [][]T
	n      int
}

// Len returns the number of entries.
func (s *Store[T]) Len() int { return s.n }

// At returns a pointer to entry i. It stays valid until the next Reset or
// CopyFrom, except that an Append that doubles the first chunk moves the
// first chunk's entries.
func (s *Store[T]) At(i int32) *T { return &s.chunks[i>>bits][i&(Size-1)] }

// Append adds v and returns its index.
func (s *Store[T]) Append(v T) int32 {
	i := s.n
	ci, j := i>>bits, i&(Size-1)
	if ci == len(s.chunks) || j == len(s.chunks[ci]) {
		size := Size
		if ci == 0 {
			size = min(max(2*j, 256), Size)
		}
		s.resize(ci, size)
	}
	s.chunks[ci][j] = v
	s.n++
	return int32(i)
}

// CopyFrom makes s an independent copy of src, reusing s's chunks where
// they are large enough. A first chunk it allocates holds exactly src's
// entries in it, so a store copied while small stays small.
func (s *Store[T]) CopyFrom(src *Store[T]) {
	for ci := 0; ci<<bits < src.n; ci++ {
		n := min(src.n-ci<<bits, Size)
		if ci == len(s.chunks) || len(s.chunks[ci]) < n {
			size := Size
			if ci == 0 {
				size = n
			}
			s.resize(ci, size)
		}
		copy(s.chunks[ci], src.chunks[ci][:n])
	}
	s.n = src.n
}

// resize replaces chunk ci, adding it if it is the next one, with one of
// size entries that starts with the old chunk's.
func (s *Store[T]) resize(ci, size int) {
	if ci == len(s.chunks) {
		s.chunks = append(s.chunks, nil)
	}
	c := make([]T, size)
	copy(c, s.chunks[ci])
	s.chunks[ci] = c
}

// Reset empties the store, keeping its chunks for reuse.
func (s *Store[T]) Reset() { s.n = 0 }
