package storage

import (
	"os"
	"testing"
	"time"
)

func writeFile(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }

// FuzzDecodeRow asserts DecodeRow never panics and that successful decodes
// re-encode to something decodable (round-trip closure).
func FuzzDecodeRow(f *testing.F) {
	f.Add(EncodeRow(nil, Row{S("FNJV-00001"), I(42), F(3.14), B(true), Null()}))
	f.Add(EncodeRow(nil, Row{T(time.Unix(1000, 0)), Bytes([]byte{1, 2, 3})}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	f.Add([]byte{0x01, 0x07})
	f.Add([]byte("\x02\x0300000000\x03\x7f\xff000000")) // a NaN cell
	f.Fuzz(func(t *testing.T, data []byte) {
		row, n, err := DecodeRow(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		enc := EncodeRow(nil, row)
		row2, _, err := DecodeRow(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(row2) != len(row) {
			t.Fatalf("round trip arity %d != %d", len(row2), len(row))
		}
		for i := range row {
			if !row[i].Equal(row2[i]) {
				t.Fatalf("column %d drifted: %v != %v", i, row[i], row2[i])
			}
		}
	})
}

// FuzzWALReplay asserts replay never panics or errors on arbitrary log
// bytes — a corrupt tail is data, not a crash.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x04, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4}) // a 4 GiB claim
	f.Add([]byte{0x00, 0x01, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4}) // longer than the file
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := dir + "/wal.log"
		if err := writeFile(path, data); err != nil {
			t.Fatal(err)
		}
		off, err := replayWAL(path, func(payload []byte) error {
			if cap(payload) > len(data) {
				t.Fatalf("payload buffer of %d bytes for a %d-byte log", cap(payload), len(data))
			}
			return nil
		})
		if err != nil {
			t.Fatalf("replay errored on garbage: %v", err)
		}
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("intact offset %d out of [0,%d]", off, len(data))
		}
	})
}
