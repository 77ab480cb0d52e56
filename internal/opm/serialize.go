package opm

import (
	"encoding/xml"
	"fmt"
	"slices"
	"time"
	"unicode/utf8"
)

// Serialization of OPM graphs in an XML dialect shaped after the OPM XML
// schema. The struct types below are the dialect's shape: UnmarshalXML
// decodes through them, and MarshalXML writes what encoding/xml would
// marshal from them.

type xmlGraph struct {
	XMLName   xml.Name  `xml:"opmGraph"`
	Artifacts []xmlNode `xml:"artifacts>artifact"`
	Processes []xmlNode `xml:"processes>process"`
	Agents    []xmlNode `xml:"agents>agent"`
	Deps      []xmlEdge `xml:"causalDependencies>dependency"`
}

type xmlNode struct {
	ID          string   `xml:"id,attr"`
	Label       string   `xml:"label,omitempty"`
	Value       string   `xml:"value,omitempty"`
	Annotations []xmlAnn `xml:"annotation,omitempty"`
}

type xmlAnn struct {
	Key   string `xml:"key,attr"`
	Value string `xml:",chardata"`
}

type xmlEdge struct {
	Kind    string `xml:"type,attr"`
	Effect  string `xml:"effect"`
	Cause   string `xml:"cause"`
	Role    string `xml:"role,omitempty"`
	Account string `xml:"account,omitempty"`
	Time    string `xml:"time,omitempty"`
}

// MarshalXML serializes the graph. It appends the bytes encoding/xml's
// MarshalIndent(x, "", "  ") writes for the xmlGraph of g, after xml.Header,
// without reflection: the same indentation, escaping (EscapeString's rules),
// empty group wrappers such as <agents></agents>, omitted empty
// label/value/role/account/time and always-written effect/cause. A node's
// annotations are written in key order. The opm tests hold the two writers
// byte-identical, because a finished run's ETag and its archived AIP's
// checksum are hashes of these bytes.
func MarshalXML(g *Graph) []byte {
	nodes := g.Nodes()
	b := make([]byte, 0, 512+256*len(nodes)+192*len(g.edges))
	b = append(b, xml.Header...)
	b = append(b, "<opmGraph>"...)
	var keys []string
	for _, grp := range [...]struct {
		kind        NodeKind
		group, elem string
	}{
		{KindArtifact, "artifacts", "artifact"},
		{KindProcess, "processes", "process"},
		{KindAgent, "agents", "agent"},
	} {
		b = append(b, "\n  <"...)
		b = append(b, grp.group...)
		b = append(b, '>')
		wrote := false
		for _, n := range nodes {
			if n.Kind != grp.kind {
				continue
			}
			wrote = true
			b = append(b, "\n    <"...)
			b = append(b, grp.elem...)
			b = append(b, ` id="`...)
			b = appendEscaped(b, n.ID)
			b = append(b, `">`...)
			children := false
			if n.Label != "" {
				b = appendField(b, "label", n.Label)
				children = true
			}
			if n.Value != "" {
				b = appendField(b, "value", n.Value)
				children = true
			}
			keys = keys[:0]
			for k := range n.Annotations {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			for _, k := range keys {
				b = append(b, "\n      <annotation key=\""...)
				b = appendEscaped(b, k)
				b = append(b, `">`...)
				b = appendEscaped(b, n.Annotations[k])
				b = append(b, "</annotation>"...)
				children = true
			}
			b = appendEnd(b, "\n    ", grp.elem, children)
		}
		b = appendEnd(b, "\n  ", grp.group, wrote)
	}
	b = append(b, "\n  <causalDependencies>"...)
	for _, e := range g.edges {
		b = append(b, "\n    <dependency type=\""...)
		b = append(b, e.Kind.String()...)
		b = append(b, `">`...)
		b = appendField(b, "effect", e.Effect)
		b = appendField(b, "cause", e.Cause)
		if e.Role != "" {
			b = appendField(b, "role", e.Role)
		}
		if e.Account != "" {
			b = appendField(b, "account", e.Account)
		}
		if !e.Time.IsZero() {
			// RFC 3339 holds digits, '-', ':', '.', 'T' and 'Z': nothing to escape.
			b = append(b, "\n      <time>"...)
			b = e.Time.UTC().AppendFormat(b, time.RFC3339Nano)
			b = append(b, "</time>"...)
		}
		b = append(b, "\n    </dependency>"...)
	}
	b = appendEnd(b, "\n  ", "causalDependencies", len(g.edges) > 0)
	return append(b, "\n</opmGraph>"...)
}

// appendField writes one child element of a node or dependency.
func appendField(b []byte, name, text string) []byte {
	b = append(b, "\n      <"...)
	b = append(b, name...)
	b = append(b, '>')
	b = appendEscaped(b, text)
	b = append(b, "</"...)
	b = append(b, name...)
	return append(b, '>')
}

// appendEnd closes element name: on a line of its own at indent after
// children, right after its start tag when it has none.
func appendEnd(b []byte, indent, name string, children bool) []byte {
	if children {
		b = append(b, indent...)
	}
	b = append(b, "</"...)
	b = append(b, name...)
	return append(b, '>')
}

// appendEscaped appends s escaped as encoding/xml's EscapeString escapes it,
// in attribute values and character data alike: the five markup characters
// and tab, newline and carriage return become character references, and
// invalid UTF-8 or a rune outside the XML character range becomes U+FFFD.
func appendEscaped(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf && xmlSafeASCII[c] {
			i++
			continue
		}
		width := 1
		esc := "\uFFFD"
		switch c {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if c >= utf8.RuneSelf {
				var r rune
				r, width = utf8.DecodeRuneInString(s[i:])
				if inXMLCharRange(r) && !(r == utf8.RuneError && width == 1) {
					i += width
					continue
				}
			}
		}
		b = append(b, s[last:i]...)
		b = append(b, esc...)
		i += width
		last = i
	}
	return append(b, s[last:]...)
}

// xmlSafeASCII marks the ASCII bytes appendEscaped copies unchanged: every
// one from space up but the five markup characters.
var xmlSafeASCII = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = true
	}
	for _, c := range `"'&<>` {
		safe[c] = false
	}
	return safe
}()

// inXMLCharRange reports whether r is an XML 1.0 Char.
func inXMLCharRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

func edgeKindFromString(s string) (EdgeKind, error) {
	switch s {
	case "used":
		return Used, nil
	case "wasGeneratedBy":
		return WasGeneratedBy, nil
	case "wasControlledBy":
		return WasControlledBy, nil
	case "wasTriggeredBy":
		return WasTriggeredBy, nil
	case "wasDerivedFrom":
		return WasDerivedFrom, nil
	default:
		return 0, fmt.Errorf("opm: unknown edge kind %q", s)
	}
}

// UnmarshalXML parses a graph serialized by MarshalXML.
func UnmarshalXML(blob []byte) (*Graph, error) {
	var x xmlGraph
	if err := xml.Unmarshal(blob, &x); err != nil {
		return nil, fmt.Errorf("opm: unmarshal: %w", err)
	}
	g := NewGraph()
	addAll := func(kind NodeKind, nodes []xmlNode) error {
		for _, xn := range nodes {
			n := Node{ID: xn.ID, Kind: kind, Label: xn.Label, Value: xn.Value, Annotations: map[string]string{}}
			for _, a := range xn.Annotations {
				n.Annotations[a.Key] = a.Value
			}
			if err := g.AddNode(n); err != nil {
				return err
			}
		}
		return nil
	}
	if err := addAll(KindArtifact, x.Artifacts); err != nil {
		return nil, err
	}
	if err := addAll(KindProcess, x.Processes); err != nil {
		return nil, err
	}
	if err := addAll(KindAgent, x.Agents); err != nil {
		return nil, err
	}
	for _, xe := range x.Deps {
		kind, err := edgeKindFromString(xe.Kind)
		if err != nil {
			return nil, err
		}
		e := Edge{Kind: kind, Effect: xe.Effect, Cause: xe.Cause, Role: xe.Role, Account: xe.Account}
		if xe.Time != "" {
			t, err := time.Parse(time.RFC3339Nano, xe.Time)
			if err != nil {
				return nil, fmt.Errorf("opm: edge time %q: %w", xe.Time, err)
			}
			// MarshalXML writes times in UTC, and RFC 3339 has four-digit
			// years: an offset that moves the year out of 0000–9999 would
			// export a time no decoder reads back.
			if y := t.UTC().Year(); y < 0 || y > 9999 {
				return nil, fmt.Errorf("opm: edge time %q: year %d in UTC", xe.Time, y)
			}
			e.Time = t
		}
		if err := g.AddEdge(e); err != nil {
			return nil, err
		}
	}
	return g, nil
}
