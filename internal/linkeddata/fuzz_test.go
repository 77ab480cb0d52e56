package linkeddata

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadNTriples asserts the parser never panics and that everything it
// accepts round-trips through the writer.
func FuzzReadNTriples(f *testing.F) {
	f.Add("<https://a> <https://b> <https://c> .\n")
	f.Add(`<https://a> <https://b> "literal with \"quotes\"" .` + "\n")
	f.Add("# comment\n\n")
	f.Add("<broken")
	f.Add("<https://a> <https://b> banana .")
	f.Fuzz(func(t *testing.T, doc string) {
		s, err := ReadNTriples(strings.NewReader(doc))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := s.WriteNTriples(&buf); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		s2, err := ReadNTriples(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v\ndoc: %q\nserialized: %q", err, doc, buf.String())
		}
		if len(s2.triples) != len(s.triples) {
			t.Fatalf("round trip count %d != %d", len(s2.triples), len(s.triples))
		}
	})
}
