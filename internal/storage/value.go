// Package storage implements the embedded database engine that backs every
// repository in the preservation architecture: the data repository, the
// workflow repository and the data-provenance repository.
//
// The engine is deliberately small but complete: typed schemas, a binary row
// codec, an in-memory B-tree primary index with optional secondary indexes,
// a write-ahead log with CRC-framed records, written through on every commit,
// and crash recovery by WAL replay. It is single-process and
// single-writer, which matches the paper's deployment (one curation service
// in front of the collection database).
package storage

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// Kind enumerates the column types supported by the engine.
type Kind uint8

// Supported column kinds.
const (
	KindNull Kind = iota
	KindString
	KindInt
	KindFloat
	KindBool
	KindTime
	KindBytes
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindTime:
		return "time"
	case KindBytes:
		return "bytes"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed cell. The zero Value is NULL.
//
// A cell is 32 bytes whatever its kind: the kind tag, one 64-bit word that
// holds an int, a float's IEEE-754 bits, a bool (0/1) or a time as UTC
// microseconds since the Unix epoch (exactly what the wire format stores, so
// a row applied live and the same row replayed from the WAL are the same
// bits), and one string-shaped payload for strings and bytes. Every stored
// row of every table is made of these, so the size is a live-heap budget
// (TestValueSizeAllocs).
type Value struct {
	kind Kind
	w    uint64
	// s is the string payload, or a bytes payload viewed as a string: Bytes
	// and Raw convert without copying, so for KindBytes the "string" aliases
	// memory its owner may mutate and must never escape as a Go string.
	s string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// S builds a string value.
func S(v string) Value { return Value{kind: KindString, s: v} }

// I builds an int value.
func I(v int64) Value { return Value{kind: KindInt, w: uint64(v)} }

// F builds a float value.
func F(v float64) Value { return Value{kind: KindFloat, w: math.Float64bits(v)} }

// B builds a bool value.
func B(v bool) Value {
	if v {
		return Value{kind: KindBool, w: 1}
	}
	return Value{kind: KindBool}
}

// T builds a time value (stored in UTC at microsecond precision).
func T(v time.Time) Value { return Value{kind: KindTime, w: uint64(v.UnixMicro())} }

// Bytes builds a raw bytes value; the slice is not copied.
func Bytes(v []byte) Value {
	return Value{kind: KindBytes, s: unsafe.String(unsafe.SliceData(v), len(v))}
}

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Str returns the string payload (zero value if not a string).
func (v Value) Str() string {
	if v.kind != KindString {
		return ""
	}
	return v.s
}

// Int returns the int payload (zero value if not an int).
func (v Value) Int() int64 {
	if v.kind != KindInt {
		return 0
	}
	return int64(v.w)
}

// Float returns the float payload (zero value if not a float).
func (v Value) Float() float64 {
	if v.kind != KindFloat {
		return 0
	}
	return math.Float64frombits(v.w)
}

// Time returns the time payload in UTC (the zero time if not a time).
func (v Value) Time() time.Time {
	if v.kind != KindTime {
		return time.Time{}
	}
	return time.UnixMicro(int64(v.w)).UTC()
}

// Raw returns the bytes payload without copying (nil if not bytes).
func (v Value) Raw() []byte {
	if v.kind != KindBytes {
		return nil
	}
	return unsafe.Slice(unsafe.StringData(v.s), len(v.s))
}

// String renders the value for display and debugging.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(int64(v.w), 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.w != 0)
	case KindTime:
		return v.Time().Format(time.RFC3339Nano)
	case KindBytes:
		return fmt.Sprintf("%x", v.s)
	default:
		return "?"
	}
}

// Equal reports deep equality of two values, including kind. Floats are
// equal when their stored bits are — the bits their index keys encode — so
// +0 and -0 differ and a NaN equals itself.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindString, KindBytes:
		return v.s == o.s
	case KindInt, KindBool, KindTime, KindFloat:
		return v.w == o.w
	default:
		return false
	}
}

// Column describes one field of a table schema.
type Column struct {
	Name     string
	Kind     Kind
	Nullable bool
}

// Schema is an ordered list of columns; column 0 is the primary key.
type Schema struct {
	Table   string
	Columns []Column
	byName  map[string]int
}

// NewSchema builds and validates a schema. The first column is the primary
// key and must be non-nullable.
func NewSchema(table string, cols ...Column) (*Schema, error) {
	if table == "" {
		return nil, fmt.Errorf("storage: schema needs a table name")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("storage: schema %q needs at least one column", table)
	}
	if cols[0].Nullable {
		return nil, fmt.Errorf("storage: schema %q primary key %q must be non-nullable", table, cols[0].Name)
	}
	s := &Schema{Table: table, Columns: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("storage: schema %q column %d has no name", table, i)
		}
		if c.Kind == KindNull {
			return nil, fmt.Errorf("storage: schema %q column %q cannot have kind null", table, c.Name)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("storage: schema %q duplicate column %q", table, c.Name)
		}
		s.byName[c.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for package-level schemas.
func MustSchema(table string, cols ...Column) *Schema {
	s, err := NewSchema(table, cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Index returns the position of the named column, or -1.
func (s *Schema) Index(name string) int {
	i, ok := s.byName[name]
	if !ok {
		return -1
	}
	return i
}

// Validate checks a row against the schema: arity, kinds and nullability.
func (s *Schema) Validate(row Row) error {
	if len(row) != len(s.Columns) {
		return fmt.Errorf("storage: table %q row has %d values, schema has %d columns", s.Table, len(row), len(s.Columns))
	}
	for i, c := range s.Columns {
		v := row[i]
		if v.IsNull() {
			if !c.Nullable {
				return fmt.Errorf("storage: table %q column %q is not nullable", s.Table, c.Name)
			}
			continue
		}
		if v.Kind() != c.Kind {
			return fmt.Errorf("storage: table %q column %q expects %s, got %s", s.Table, c.Name, c.Kind, v.Kind())
		}
	}
	return nil
}

// Row is one record, positional per the schema.
type Row []Value

// Clone returns a deep copy of the row: one new cell array, bytes payloads
// copied, strings (immutable) shared. It is the one copy a commit makes of a
// caller's row before storing it.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	for i := range out {
		if out[i].kind == KindBytes {
			out[i].s = strings.Clone(out[i].s)
		}
	}
	return out
}

// Get returns the value at the named column per the schema, or NULL if the
// column does not exist.
func (r Row) Get(s *Schema, name string) Value {
	i := s.Index(name)
	if i < 0 || i >= len(r) {
		return Null()
	}
	return r[i]
}
