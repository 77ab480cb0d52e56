package storage

import (
	"bytes"
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func sampleRow() Row {
	return Row{
		S("FNJV-0001"),
		I(42),
		F(3.14159),
		B(true),
		T(time.Date(2013, 11, 12, 19, 58, 9, 767000000, time.UTC)),
		Bytes([]byte{0x01, 0x02, 0xFF}),
		Null(),
		S(""),
	}
}

func TestRowRoundTrip(t *testing.T) {
	row := sampleRow()
	enc := EncodeRow(nil, row)
	dec, n, err := DecodeRow(enc)
	if err != nil {
		t.Fatalf("DecodeRow: %v", err)
	}
	if n != len(enc) {
		t.Fatalf("DecodeRow consumed %d of %d bytes", n, len(enc))
	}
	if len(dec) != len(row) {
		t.Fatalf("decoded %d values, want %d", len(dec), len(row))
	}
	for i := range row {
		if !row[i].Equal(dec[i]) {
			t.Errorf("column %d: got %v (%s), want %v (%s)", i, dec[i], dec[i].Kind(), row[i], row[i].Kind())
		}
	}
}

func TestRowRoundTripEmpty(t *testing.T) {
	enc := EncodeRow(nil, Row{})
	dec, _, err := DecodeRow(enc)
	if err != nil {
		t.Fatalf("DecodeRow: %v", err)
	}
	if len(dec) != 0 {
		t.Fatalf("decoded %d values, want 0", len(dec))
	}
}

func TestDecodeRowTruncated(t *testing.T) {
	enc := EncodeRow(nil, sampleRow())
	for cut := 1; cut < len(enc); cut++ {
		if _, _, err := DecodeRow(enc[:cut]); err == nil {
			// Some prefixes decode as a shorter valid row only if the column
			// count happens to be satisfied; the count here is fixed at 8, so
			// any cut must fail.
			t.Fatalf("DecodeRow of %d-byte prefix succeeded", cut)
		}
	}
}

func TestDecodeRowGarbage(t *testing.T) {
	if _, _, err := DecodeRow([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}); err == nil {
		t.Fatal("DecodeRow of garbage succeeded")
	}
}

// TestDecodeStringMapRejects: DecodeStringMap takes the canonical encoding of
// a sorted string map and nothing else.
func TestDecodeStringMapRejects(t *testing.T) {
	row := func(cells ...Value) []byte { return EncodeRow(nil, Row(cells)) }
	canonical := row(S("a"), S("1"), S("b"), S(""))
	m, err := DecodeStringMap(canonical)
	if err != nil || len(m) != 2 || m["a"] != "1" || m["b"] != "" {
		t.Fatalf("DecodeStringMap(canonical) = %v, %v", m, err)
	}
	overlong := append([]byte{canonical[0] | 0x80, 0}, canonical[1:]...)
	for name, blob := range map[string][]byte{
		"non-string cells": row(I(1), I(2), S("k"), Null()),
		"bytes cell":       row(S("k"), Bytes([]byte("v"))),
		"odd cell count":   row(S("a"), S("1"), S("b")),
		"keys descending":  row(S("b"), S("1"), S("a"), S("2")),
		"repeated key":     row(S("a"), S("1"), S("a"), S("2")),
		"overlong count":   overlong,
		"trailing bytes":   append(canonical, 0),
		"truncated":        canonical[:len(canonical)-1],
	} {
		if m, err := DecodeStringMap(blob); err == nil {
			t.Errorf("%s: %x decoded to %v", name, blob, m)
		}
	}
}

func TestEncodeKeyOrderPreserving(t *testing.T) {
	cases := [][2]Value{
		{S("abelha"), S("abelhudo")},
		{S(""), S("a")},
		{I(-10), I(-9)},
		{I(-1), I(0)},
		{I(0), I(1)},
		{I(math.MinInt64), I(math.MaxInt64)},
		{F(-math.MaxFloat64), F(-1)},
		{F(-1), F(-0.5)},
		{F(-0.5), F(0)},
		{F(0), F(0.5)},
		{F(0.5), F(math.MaxFloat64)},
		{B(false), B(true)},
		{T(time.Unix(0, 0)), T(time.Unix(1, 0))},
		{T(time.Date(1960, 1, 1, 0, 0, 0, 0, time.UTC)), T(time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC))},
	}
	for _, c := range cases {
		lo, hi := EncodeKey(nil, c[0]), EncodeKey(nil, c[1])
		if bytes.Compare(lo, hi) >= 0 {
			t.Errorf("EncodeKey(%v) >= EncodeKey(%v)", c[0], c[1])
		}
	}
}

func TestEncodeKeyOrderPropertyInts(t *testing.T) {
	f := func(a, b int64) bool {
		ka, kb := EncodeKey(nil, I(a)), EncodeKey(nil, I(b))
		cmp := bytes.Compare(ka, kb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeKeyOrderPropertyStrings(t *testing.T) {
	f := func(a, b string) bool {
		ka, kb := EncodeKey(nil, S(a)), EncodeKey(nil, S(b))
		cmp := bytes.Compare(ka, kb)
		switch {
		case a < b:
			return cmp <= 0 // NUL-terminated: "a\x00b" vs "a" edge handled below
		case a > b:
			return cmp >= 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRowRoundTripProperty(t *testing.T) {
	f := func(s string, i int64, fl float64, b bool, raw []byte) bool {
		if math.IsNaN(fl) {
			fl = 0
		}
		row := Row{S(s), I(i), F(fl), B(b), Bytes(raw), Null()}
		dec, n, err := DecodeRow(EncodeRow(nil, row))
		if err != nil || n == 0 || len(dec) != len(row) {
			return false
		}
		for j := range row {
			if !row[j].Equal(dec[j]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValueCompareAndEqual(t *testing.T) {
	if !S("x").Equal(S("x")) || S("x").Equal(S("y")) {
		t.Fatal("string Equal broken")
	}
	if S("x").Equal(I(1)) {
		t.Fatal("cross-kind Equal must be false")
	}
	if bytes.Compare(EncodeKey(nil, Null()), EncodeKey(nil, S("a"))) >= 0 {
		t.Fatal("NULL must sort before strings")
	}
	if c := bytes.Compare(EncodeKey(nil, F(1.5)), EncodeKey(nil, F(1.5))); c != 0 {
		t.Fatalf("equal floats compare %d", c)
	}
	tm := time.Now()
	if !T(tm).Equal(T(tm)) {
		t.Fatal("time Equal broken")
	}
	if bytes.Compare(EncodeKey(nil, T(tm)), EncodeKey(nil, T(tm.Add(time.Second)))) != -1 {
		t.Fatal("time Compare broken")
	}
}

func TestValueStringRendering(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{S("hi"), "hi"},
		{I(-3), "-3"},
		{B(true), "true"},
	} {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("String(%v-kind) = %q, want %q", tc.v.Kind(), got, tc.want)
		}
	}
}

func TestRowCloneIsDeep(t *testing.T) {
	raw := []byte{1, 2, 3}
	row := Row{S("k"), Bytes(raw)}
	cl := row.Clone()
	raw[0] = 99
	if cl[1].Raw()[0] != 1 {
		t.Fatal("Clone shares bytes payload with original")
	}
}

// TestWireFormatGolden pins the bytes on disk. The literals were produced by
// the 96-byte Value this package had before the compact cell: a WAL or
// snapshot written by either must read back under the other, and a B-tree key
// must keep its order, so neither encoder may move a bit.
func TestWireFormatGolden(t *testing.T) {
	cases := []struct {
		name     string
		v        Value
		row, key string // hex of EncodeRow(Row{v}) and EncodeKey(v)
	}{
		{"null", Null(), "0100", "00"},
		{"string", S("FNJV-0001"), "010109464e4a562d30303031", "01464e4a562d3030303100"},
		{"empty string", S(""), "010100", "0100"},
		{"int", I(42), "010254", "02800000000000002a"},
		{"negative int", I(-1978), "0102f31e", "027ffffffffffff846"},
		{"float", F(3.14159), "0103400921f9f01b866e", "03c00921f9f01b866e"},
		{"negative float", F(-0.5), "0103bfe0000000000000", "03401fffffffffffff"},
		{"true", B(true), "010401", "0401"},
		{"false", B(false), "010400", "0400"},
		{"time", T(time.Date(2013, 11, 12, 19, 58, 9, 767123456, time.FixedZone("BRT", -3*3600))), "0105a6dbe484d9c0f504", "058004eb02c84c96d3"},
		{"pre-epoch time", T(time.Date(1969, 7, 20, 20, 17, 40, 123456789, time.UTC)), "0105fff2be91c7b906", "057ffff319c6e82340"},
		{"zero time", T(time.Time{}), "0105ffffddf2dfffdfdc01", "057f23400100d44000"},
		{"bytes", Bytes([]byte{0x01, 0x00, 0xFF}), "0106030100ff", "060100ff00"},
		{"empty bytes", Bytes(nil), "010600", "0600"},
	}
	var all Row
	for _, tc := range cases {
		if got := hex.EncodeToString(EncodeRow(nil, Row{tc.v})); got != tc.row {
			t.Errorf("%s: EncodeRow = %s, want %s", tc.name, got, tc.row)
		}
		if got := hex.EncodeToString(EncodeKey(nil, tc.v)); got != tc.key {
			t.Errorf("%s: EncodeKey = %s, want %s", tc.name, got, tc.key)
		}
		if got := keyLen(tc.v); got != len(tc.key)/2 {
			t.Errorf("%s: keyLen = %d, want %d", tc.name, got, len(tc.key)/2)
		}
		raw, _ := hex.DecodeString(tc.row)
		if dec, n, err := DecodeRow(raw); err != nil || n != len(raw) || len(dec) != 1 || !dec[0].Equal(tc.v) {
			t.Errorf("%s: DecodeRow(%s) = %v, %d, %v", tc.name, tc.row, dec, n, err)
		}
		all = append(all, tc.v)
	}
	const row = "0e000109464e4a562d303030310100025402f31e03400921f9f01b866e03bfe00000000000000401040005a6dbe484d9c0f50405fff2be91c7b90605ffffddf2dfffdfdc0106030100ff0600"
	if got := hex.EncodeToString(EncodeRow(nil, all)); got != row {
		t.Errorf("EncodeRow(all kinds) = %s, want %s", got, row)
	}
}

// TestValueAccessors: a cell answers only for its own kind (the word and the
// payload are shared between kinds, the accessors must not leak one kind's
// bits as another's), and a time reads back in UTC at microsecond precision
// whether the row was applied live or decoded.
func TestValueAccessors(t *testing.T) {
	brt := time.Date(2013, 11, 12, 19, 58, 9, 767123456, time.FixedZone("BRT", -3*3600))
	for _, v := range []Value{Null(), S("x"), I(-7), F(2.5), B(true), T(brt), Bytes([]byte("x"))} {
		k := v.Kind()
		if got := v.Str(); (got != "") != (k == KindString) {
			t.Errorf("%s.Str() = %q", k, got)
		}
		if got := v.Int(); (got != 0) != (k == KindInt) {
			t.Errorf("%s.Int() = %d", k, got)
		}
		if got := v.Float(); (got != 0) != (k == KindFloat) {
			t.Errorf("%s.Float() = %v", k, got)
		}
		if got := v.Equal(B(true)); got != (k == KindBool) {
			t.Errorf("%s.Equal(B(true)) = %v", k, got)
		}
		if got := v.Time(); got.IsZero() != (k != KindTime) {
			t.Errorf("%s.Time() = %v", k, got)
		}
		if got := v.Raw(); (got != nil) != (k == KindBytes) {
			t.Errorf("%s.Raw() = %x", k, got)
		}
	}
	want := brt.UTC().Truncate(time.Microsecond)
	if got := T(brt).Time(); got != want || got.Location() != time.UTC {
		t.Errorf("T(%v).Time() = %v, want %v", brt, got, want)
	}
	if !T(time.Time{}).Time().IsZero() {
		t.Error("the zero time does not survive T().Time()")
	}
	raw := []byte{1, 2, 3}
	if got := Bytes(raw).Raw(); &got[0] != &raw[0] {
		t.Error("Bytes/Raw copied the payload")
	}
}
