package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Row wire format:
//
//	uvarint column-count
//	per column: 1 byte kind, then a kind-specific payload:
//	  null   — nothing
//	  string — uvarint length + bytes
//	  int    — zig-zag varint
//	  float  — 8 bytes IEEE-754 big-endian
//	  bool   — 1 byte
//	  time   — zig-zag varint microseconds since Unix epoch (UTC)
//	  bytes  — uvarint length + bytes
//
// The format is self-describing (kind tags are stored) so WAL replay can
// decode rows written under an earlier, narrower schema.

// EncodeRow appends the wire encoding of row to dst and returns the result.
func EncodeRow(dst []byte, row Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	for _, v := range row {
		dst = append(dst, byte(v.kind))
		switch v.kind {
		case KindNull:
		case KindString, KindBytes:
			dst = binary.AppendUvarint(dst, uint64(len(v.s)))
			dst = append(dst, v.s...)
		case KindInt, KindTime:
			dst = binary.AppendVarint(dst, int64(v.w))
		case KindFloat:
			dst = binary.BigEndian.AppendUint64(dst, v.w)
		case KindBool:
			dst = append(dst, byte(v.w))
		}
	}
	return dst
}

// DecodeRow parses a row from buf, returning the row and the number of bytes
// consumed.
func DecodeRow(buf []byte) (Row, int, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("storage: corrupt row header")
	}
	if n > uint64(len(buf)) { // cheap sanity bound: ≥1 byte per column
		return nil, 0, fmt.Errorf("storage: corrupt row: %d columns in %d bytes", n, len(buf))
	}
	off := sz
	row := make(Row, 0, n)
	for c := uint64(0); c < n; c++ {
		if off >= len(buf) {
			return nil, 0, fmt.Errorf("storage: truncated row at column %d", c)
		}
		kind := Kind(buf[off])
		off++
		var v Value
		switch kind {
		case KindNull:
			v = Null()
		case KindString, KindBytes:
			l, sz := binary.Uvarint(buf[off:])
			if sz <= 0 || uint64(len(buf)-off-sz) < l {
				return nil, 0, fmt.Errorf("storage: truncated %s at column %d", kind, c)
			}
			off += sz
			// The one copy out of buf: the decoded row never aliases it.
			v = Value{kind: kind, s: string(buf[off : off+int(l)])}
			off += int(l)
		case KindInt:
			x, sz := binary.Varint(buf[off:])
			if sz <= 0 {
				return nil, 0, fmt.Errorf("storage: truncated int at column %d", c)
			}
			off += sz
			v = I(x)
		case KindFloat:
			if len(buf)-off < 8 {
				return nil, 0, fmt.Errorf("storage: truncated float at column %d", c)
			}
			v = Value{kind: KindFloat, w: binary.BigEndian.Uint64(buf[off:])}
			off += 8
		case KindBool:
			if off >= len(buf) {
				return nil, 0, fmt.Errorf("storage: truncated bool at column %d", c)
			}
			v = B(buf[off] != 0)
			off++
		case KindTime:
			us, sz := binary.Varint(buf[off:])
			if sz <= 0 {
				return nil, 0, fmt.Errorf("storage: truncated time at column %d", c)
			}
			off += sz
			v = Value{kind: KindTime, w: uint64(us)}
		default:
			return nil, 0, fmt.Errorf("storage: unknown kind %d at column %d", kind, c)
		}
		row = append(row, v)
	}
	return row, off, nil
}

// DecodeStringMap decodes a map stored as one row of string cells, key then
// value, keys strictly ascending — what EncodeRow writes for the pairs of a
// map in sorted key order (provenance annotations, span attributes). It
// accepts nothing else, so the map it returns re-encodes to exactly blob: a
// cell of another kind, an odd cell count, a key out of order or repeated, a
// length written longer than it needs, or bytes after the row are errors.
func DecodeStringMap(blob []byte) (map[string]string, error) {
	row, _, err := DecodeRow(blob)
	if err != nil {
		return nil, err
	}
	if len(row)%2 != 0 {
		return nil, fmt.Errorf("storage: string map of %d cells", len(row))
	}
	size := uvarintLen(len(row))
	m := make(map[string]string, len(row)/2)
	for i := 0; i < len(row); i += 2 {
		k, v := row[i], row[i+1]
		if k.kind != KindString || v.kind != KindString {
			return nil, fmt.Errorf("storage: string map pair %d is a %s and a %s", i/2, k.kind, v.kind)
		}
		if i > 0 && k.s <= row[i-2].s {
			return nil, fmt.Errorf("storage: string map key %q after %q", k.s, row[i-2].s)
		}
		size += 2 + uvarintLen(len(k.s)) + len(k.s) + uvarintLen(len(v.s)) + len(v.s)
		m[k.s] = v.s
	}
	// The canonical encoding of row is size bytes: an overlong length or
	// bytes after the row make blob longer.
	if size != len(blob) {
		return nil, fmt.Errorf("storage: string map in %d bytes, canonically %d", len(blob), size)
	}
	return m, nil
}

// uvarintLen is the length of binary.AppendUvarint's encoding of n.
func uvarintLen(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }

// EncodeKey produces an order-preserving byte encoding of a value, used as a
// B-tree key: comparing encodings bytewise orders values of the same kind
// naturally, and NULL before everything.
func EncodeKey(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindString, KindBytes:
		dst = append(dst, v.s...)
		dst = append(dst, 0)
	case KindInt, KindTime:
		dst = binary.BigEndian.AppendUint64(dst, v.w^(1<<63))
	case KindFloat:
		bits := v.w
		if math.Float64frombits(bits) >= 0 {
			bits ^= 1 << 63
		} else {
			bits = ^bits
		}
		dst = binary.BigEndian.AppendUint64(dst, bits)
	case KindBool:
		dst = append(dst, byte(v.w))
	}
	return dst
}

// keyLen is len(EncodeKey(nil, v)) without encoding: a commit sizes its key
// arena from it before anything is written.
func keyLen(v Value) int {
	switch v.kind {
	case KindString, KindBytes:
		return 1 + len(v.s) + 1
	case KindInt, KindTime, KindFloat:
		return 1 + 8
	case KindBool:
		return 1 + 1
	default:
		return 1
	}
}
