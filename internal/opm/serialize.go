package opm

import (
	"encoding/xml"
	"fmt"
	"sort"
	"time"
)

// Serialization of OPM graphs in an XML dialect shaped after the OPM XML
// schema.

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

func nodeToXML(n *Node) xmlNode {
	x := xmlNode{ID: n.ID, Label: n.Label, Value: n.Value}
	keys := make([]string, 0, len(n.Annotations))
	for k := range n.Annotations {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		x.Annotations = append(x.Annotations, xmlAnn{Key: k, Value: n.Annotations[k]})
	}
	return x
}

// MarshalXML serializes the graph.
func MarshalXML(g *Graph) ([]byte, error) {
	var x xmlGraph
	for _, n := range g.Nodes() {
		xn := nodeToXML(n)
		switch n.Kind {
		case KindArtifact:
			x.Artifacts = append(x.Artifacts, xn)
		case KindProcess:
			x.Processes = append(x.Processes, xn)
		case KindAgent:
			x.Agents = append(x.Agents, xn)
		}
	}
	for _, e := range g.Edges() {
		xe := xmlEdge{Kind: e.Kind.String(), Effect: e.Effect, Cause: e.Cause, Role: e.Role, Account: e.Account}
		if !e.Time.IsZero() {
			xe.Time = e.Time.UTC().Format(time.RFC3339Nano)
		}
		x.Deps = append(x.Deps, xe)
	}
	blob, err := xml.MarshalIndent(x, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("opm: marshal: %w", err)
	}
	return append([]byte(xml.Header), blob...), nil
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
			e.Time = t
		}
		if err := g.AddEdge(e); err != nil {
			return nil, err
		}
	}
	return g, nil
}
