package storage

// The B-tree tests predate the typed trees and store ints, strings and bools;
// they keep running unchanged against the `any` instantiation of the same
// generic code the tables use as btreeOf[Row] and btreeOf[Value].
type btree = btreeOf[any]

func newBTree() *btree { return newBTreeOf[any]() }
