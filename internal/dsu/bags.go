package dsu

// Bag is one entry of a Bags table: a possibly-empty set of elements with
// a kind and a view that mean what the detector says (S or P bag, SS or
// SP bag; SP+'s view ID). A union into a bag keeps its kind and view.
//
// A bag can hold elements that are not minted yet: Hold puts one in
// without touching the forest, and Mint makes it when a detector must
// store or render it. The held bit keeps Empty exact either way.
type Bag struct {
	View int64
	root Elem // None when the bag holds no minted element
	Kind int8
	held bool // the bag holds an element, minted or not
}

// Empty reports whether the bag holds no element.
func (b *Bag) Empty() bool { return !b.held }

// Bags is a detector's bag table and the forest behind it. A bag is named
// by its index in the table, which is the payload of its set's root, so
// finding the bag that holds an element is a Find plus one table lookup.
// Neither the table nor the forest holds a pointer. The zero value is an
// empty table ready for use.
type Bags struct {
	forest Forest
	table  []Bag
	free   []int32 // indices Free released, for New to reuse
	ops    uint64
}

// New returns the index of an empty bag of the given kind and view,
// reusing a freed one when there is one.
func (t *Bags) New(kind int8, view int64) int32 {
	b := Bag{View: view, root: None, Kind: kind}
	if n := len(t.free); n > 0 {
		i := t.free[n-1]
		t.free, t.table[i] = t.free[:n-1], b
		return i
	}
	t.table = append(t.table, b)
	return int32(len(t.table) - 1)
}

// Free hands the empty bag b back for New to reuse.
func (t *Bags) Free(b int32) { t.free = append(t.free, b) }

// At returns bag b. The pointer is valid until the next New.
func (t *Bags) At(b int32) *Bag { return &t.table[b] }

// Of returns the bag that holds element e, valid until the next New.
func (t *Bags) Of(e Elem) *Bag { return &t.table[t.forest.payload(e)] }

// Hold puts an element into bag b without minting it: the bag is no
// longer empty, and the forest is untouched until Mint.
func (t *Bags) Hold(b int32) {
	t.ops++
	t.table[b].held = true
}

// Mint mints the element a Hold put into bag b and returns it. It counts
// no operation: the Hold did.
func (t *Bags) Mint(b int32) Elem {
	e := t.forest.MakeSet()
	t.merge(b, e)
	t.table[b].held = true
	return e
}

// Add puts a fresh element into bag b and returns it: a Hold and its Mint.
func (t *Bags) Add(b int32) Elem {
	t.Hold(b)
	return t.Mint(b)
}

// Union moves every element of bag src, minted or not, into bag dst and
// leaves src empty.
func (t *Bags) Union(dst, src int32) {
	sb := &t.table[src]
	if !sb.held {
		return
	}
	t.ops++
	if sb.root != None {
		t.merge(dst, sb.root)
		sb.root = None
	}
	sb.held = false
	t.table[dst].held = true
}

// merge joins the set rooted at root into bag b.
func (t *Bags) merge(b int32, root Elem) {
	if bg := &t.table[b]; bg.root == None {
		bg.root = root
		t.forest.setPayload(root, b)
	} else {
		bg.root = t.forest.Union(bg.root, root)
	}
}

// Ops counts the Holds and the Unions that moved elements.
func (t *Bags) Ops() uint64 { return t.ops }

// Stats reports the forest's element count, which is the number of
// minted elements, and its Find and Union counts.
func (t *Bags) Stats() (elems int, finds, unions uint64) {
	finds, unions = t.forest.Stats()
	return t.forest.Len(), finds, unions
}

// CopyFrom makes t an independent copy of src, reusing t's storage.
func (t *Bags) CopyFrom(src *Bags) {
	t.forest.CopyFrom(&src.forest)
	t.table = append(t.table[:0], src.table...)
	t.free = append(t.free[:0], src.free...)
	t.ops = src.ops
}

// Reset empties the table and the forest, keeping their storage.
func (t *Bags) Reset() {
	t.forest.Reset()
	t.table, t.free, t.ops = t.table[:0], t.free[:0], 0
}
