package storage

import "bytes"

// btreeOf is an in-memory B-tree keyed by []byte holding values of one type,
// unboxed: a table's primary tree is a btreeOf[Row], its secondary trees are
// btreeOf[Value] (the row's pk). It is not safe for concurrent mutation;
// Table serializes access under the owning DB's lock.
type btreeOf[V any] struct {
	root   *btreeNode[V]
	degree int // minimum degree t: nodes hold t-1..2t-1 keys (root may hold fewer)
	size   int
}

type btreeNode[V any] struct {
	keys     [][]byte
	vals     []V
	children []*btreeNode[V] // nil for leaves
}

const defaultBTreeDegree = 32

func newBTreeOf[V any]() *btreeOf[V] {
	return &btreeOf[V]{degree: defaultBTreeDegree, root: &btreeNode[V]{}}
}

func (n *btreeNode[V]) leaf() bool { return len(n.children) == 0 }

// find returns the index of key in n.keys (or insertion point) and whether
// it was an exact match.
func (n *btreeNode[V]) find(key []byte) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(n.keys[mid], key) {
		case -1:
			lo = mid + 1
		case 1:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// Get returns the value stored under key.
func (t *btreeOf[V]) Get(key []byte) (V, bool) {
	n := t.root
	for {
		i, ok := n.find(key)
		if ok {
			return n.vals[i], true
		}
		if n.leaf() {
			var zero V
			return zero, false
		}
		n = n.children[i]
	}
}

// Len reports the number of keys in the tree.
func (t *btreeOf[V]) Len() int { return t.size }

// Set inserts or replaces the value under key. It reports whether the key
// was newly inserted; see swap for who owns key afterwards.
func (t *btreeOf[V]) Set(key []byte, val V) bool {
	_, replaced := t.swap(key, val)
	return !replaced
}

// swap is Set that also hands back what it replaced, in the same descent.
// A newly inserted key is retained, not copied: the caller gives it up (a
// commit carves it from its key arena) and must never write to it again. A
// replaced key keeps the tree's own copy, so key may then be scratch.
func (t *btreeOf[V]) swap(key []byte, val V) (old V, replaced bool) {
	max := 2*t.degree - 1
	if len(t.root.keys) == max {
		full := t.root
		t.root = &btreeNode[V]{children: []*btreeNode[V]{full}}
		t.root.splitChild(0, t.degree)
	}
	old, replaced = t.root.insertNonFull(key, val, t.degree)
	if !replaced {
		t.size++
	}
	return old, replaced
}

func (n *btreeNode[V]) splitChild(i, degree int) {
	child := n.children[i]
	mid := degree - 1
	right := &btreeNode[V]{
		keys: append([][]byte(nil), child.keys[mid+1:]...),
		vals: append([]V(nil), child.vals[mid+1:]...),
	}
	if !child.leaf() {
		right.children = append([]*btreeNode[V](nil), child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}
	upKey, upVal := child.keys[mid], child.vals[mid]
	child.keys = child.keys[:mid]
	child.vals = child.vals[:mid]

	n.keys = append(n.keys, nil)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = upKey
	n.vals = append(n.vals, upVal)
	copy(n.vals[i+1:], n.vals[i:])
	n.vals[i] = upVal
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

// insertNonFull descends from n, splitting each full child before stepping
// into it. It returns the value it replaced, if any.
func (n *btreeNode[V]) insertNonFull(key []byte, val V, degree int) (old V, replaced bool) {
	for {
		i, ok := n.find(key)
		if ok {
			old, n.vals[i] = n.vals[i], val
			return old, true
		}
		if n.leaf() {
			n.keys = append(n.keys, key)
			copy(n.keys[i+1:], n.keys[i:])
			n.keys[i] = key
			n.vals = append(n.vals, val)
			copy(n.vals[i+1:], n.vals[i:])
			n.vals[i] = val
			return old, false
		}
		if len(n.children[i].keys) == 2*degree-1 {
			n.splitChild(i, degree)
			if c := bytes.Compare(key, n.keys[i]); c == 0 {
				old, n.vals[i] = n.vals[i], val
				return old, true
			} else if c > 0 {
				i++
			}
		}
		n = n.children[i]
	}
}

// Delete removes key from the tree, reporting whether it was present.
func (t *btreeOf[V]) Delete(key []byte) bool {
	_, ok := t.remove(key)
	return ok
}

// remove is Delete that also hands back the removed value, in the same
// descent.
func (t *btreeOf[V]) remove(key []byte) (old V, ok bool) {
	root := t.root
	if !root.delete(key, t.degree, &old) {
		return old, false
	}
	if len(root.keys) == 0 && !root.leaf() {
		t.root = root.children[0]
	}
	t.size--
	return old, true
}

// delete removes key from the subtree under n, topping up each child to at
// least degree keys before descending into it. The value stored under key is
// written to *old where the key is found (old is nil for the internal
// predecessor/successor moves).
func (n *btreeNode[V]) delete(key []byte, degree int, old *V) bool {
	i, ok := n.find(key)
	if n.leaf() {
		if !ok {
			return false
		}
		if old != nil {
			*old = n.vals[i]
		}
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.vals = append(n.vals[:i], n.vals[i+1:]...)
		return true
	}
	if ok {
		// Replace with predecessor or successor, or merge.
		if len(n.children[i].keys) >= degree {
			child := n.children[i]
			pk, pv := child.max()
			if old != nil {
				*old = n.vals[i]
			}
			n.keys[i], n.vals[i] = pk, pv
			return child.delete(pk, degree, nil)
		}
		if len(n.children[i+1].keys) >= degree {
			child := n.children[i+1]
			sk, sv := child.min()
			if old != nil {
				*old = n.vals[i]
			}
			n.keys[i], n.vals[i] = sk, sv
			return child.delete(sk, degree, nil)
		}
		n.merge(i)
		return n.children[i].delete(key, degree, old)
	}
	// Descend, ensuring the child has ≥ degree keys first.
	if len(n.children[i].keys) < degree {
		i = n.fill(i, degree)
	}
	return n.children[i].delete(key, degree, old)
}

// fill ensures children[i] has at least degree keys, borrowing or merging.
// It returns the (possibly shifted) child index to descend into.
func (n *btreeNode[V]) fill(i, degree int) int {
	switch {
	case i > 0 && len(n.children[i-1].keys) >= degree:
		n.borrowFromLeft(i)
	case i < len(n.children)-1 && len(n.children[i+1].keys) >= degree:
		n.borrowFromRight(i)
	case i < len(n.children)-1:
		n.merge(i)
	default:
		n.merge(i - 1)
		i--
	}
	return i
}

func (n *btreeNode[V]) borrowFromLeft(i int) {
	child, left := n.children[i], n.children[i-1]
	child.keys = append([][]byte{n.keys[i-1]}, child.keys...)
	child.vals = append([]V{n.vals[i-1]}, child.vals...)
	n.keys[i-1] = left.keys[len(left.keys)-1]
	n.vals[i-1] = left.vals[len(left.vals)-1]
	left.keys = left.keys[:len(left.keys)-1]
	left.vals = left.vals[:len(left.vals)-1]
	if !child.leaf() {
		child.children = append([]*btreeNode[V]{left.children[len(left.children)-1]}, child.children...)
		left.children = left.children[:len(left.children)-1]
	}
}

func (n *btreeNode[V]) borrowFromRight(i int) {
	child, right := n.children[i], n.children[i+1]
	child.keys = append(child.keys, n.keys[i])
	child.vals = append(child.vals, n.vals[i])
	n.keys[i] = right.keys[0]
	n.vals[i] = right.vals[0]
	right.keys = right.keys[1:]
	right.vals = right.vals[1:]
	if !child.leaf() {
		child.children = append(child.children, right.children[0])
		right.children = right.children[1:]
	}
}

// merge folds children[i+1] and keys[i] into children[i].
func (n *btreeNode[V]) merge(i int) {
	child, right := n.children[i], n.children[i+1]
	child.keys = append(child.keys, n.keys[i])
	child.vals = append(child.vals, n.vals[i])
	child.keys = append(child.keys, right.keys...)
	child.vals = append(child.vals, right.vals...)
	child.children = append(child.children, right.children...)
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

func (n *btreeNode[V]) min() ([]byte, V) {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.keys[0], n.vals[0]
}

func (n *btreeNode[V]) max() ([]byte, V) {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.keys[len(n.keys)-1], n.vals[len(n.vals)-1]
}

// Ascend walks keys in [from, to) in order (nil bounds are open) calling fn;
// fn returning false stops the walk.
func (t *btreeOf[V]) Ascend(from, to []byte, fn func(key []byte, val V) bool) {
	t.root.ascend(from, to, fn)
}

func (n *btreeNode[V]) ascend(from, to []byte, fn func([]byte, V) bool) bool {
	start := 0
	if from != nil {
		start, _ = n.find(from)
	}
	for i := start; i < len(n.keys); i++ {
		if !n.leaf() {
			if !n.children[i].ascend(from, to, fn) {
				return false
			}
		}
		if to != nil && bytes.Compare(n.keys[i], to) >= 0 {
			return false
		}
		if from == nil || bytes.Compare(n.keys[i], from) >= 0 {
			if !fn(n.keys[i], n.vals[i]) {
				return false
			}
		}
	}
	if !n.leaf() {
		return n.children[len(n.children)-1].ascend(from, to, fn)
	}
	return true
}
