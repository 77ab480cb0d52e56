package opm

import (
	"errors"
	"sort"
	"strings"
	"testing"
	"time"
)

// caseStudyGraph builds the Fig. 3 provenance shape: metadata artifact ->
// detection process (controlled by curator, using the authority list) ->
// summary artifact.
func caseStudyGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.Artifact("a:metadata", "FNJV sound metadata", "11898 records"))
	must(g.Artifact("a:checklist", "Catalogue of Life", "species list"))
	must(g.Artifact("a:summary", "updated species names", "134 outdated"))
	must(g.AddNode(Node{ID: "p:detect", Kind: KindProcess, Label: "Outdated Species Name Detection"}))
	must(g.AddNode(Node{ID: "ag:curator", Kind: KindAgent, Label: "FNJV curator"}))
	must(g.AddEdge(Edge{Kind: Used, Effect: "p:detect", Cause: "a:metadata", Role: "input"}))
	must(g.AddEdge(Edge{Kind: Used, Effect: "p:detect", Cause: "a:checklist", Role: "authority"}))
	must(g.AddEdge(Edge{Kind: WasGeneratedBy, Effect: "a:summary", Cause: "p:detect", Role: "output"}))
	must(g.AddEdge(Edge{Kind: WasControlledBy, Effect: "p:detect", Cause: "ag:curator", Role: "operator"}))
	return g
}

func TestGraphBasics(t *testing.T) {
	g := caseStudyGraph(t)
	if g.NodeCount() != 5 || g.EdgeCount() != 4 {
		t.Fatalf("counts = %d nodes %d edges", g.NodeCount(), g.EdgeCount())
	}
	if len(nodesOfKind(g, KindArtifact)) != 3 {
		t.Fatal("artifact count wrong")
	}
	if len(edgesOfKind(g, Used)) != 2 {
		t.Fatal("used count wrong")
	}
	n, ok := g.Node("a:summary")
	if !ok || n.Label != "updated species names" {
		t.Fatalf("Node = %+v", n)
	}
	if err := g.Annotate("a:summary", "quality.accuracy", "0.93"); err != nil {
		t.Fatal(err)
	}
	n, _ = g.Node("a:summary")
	if n.Annotations["quality.accuracy"] != "0.93" {
		t.Fatal("annotation not stored")
	}
	if err := g.Annotate("missing", "k", "v"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Annotate missing: %v", err)
	}
}

func TestGraphNodeValidation(t *testing.T) {
	g := NewGraph()
	if err := g.Artifact("a", "x", ""); err != nil {
		t.Fatal(err)
	}
	if err := g.Artifact("a", "x", ""); !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("duplicate: %v", err)
	}
	if err := g.AddNode(Node{Kind: KindAgent}); err == nil {
		t.Fatal("empty ID accepted")
	}
}

// TestEdgeDedupKeepsDistinctFields: two edges that differ only in where a "|"
// splits their role from their account are different edges — the graph
// keeps both, and so does its clone — while a true duplicate is dropped.
func TestEdgeDedupKeepsDistinctFields(t *testing.T) {
	g := NewGraph()
	if err := g.AddNode(Node{ID: "p:1", Kind: KindProcess, Label: "p"}); err != nil {
		t.Fatal(err)
	}
	if err := g.Artifact("a:1", "a", ""); err != nil {
		t.Fatal(err)
	}
	for _, e := range []Edge{
		{Kind: Used, Effect: "p:1", Cause: "a:1", Role: "x|y", Account: "z"},
		{Kind: Used, Effect: "p:1", Cause: "a:1", Role: "x", Account: "y|z"},
		{Kind: Used, Effect: "p:1", Cause: "a:1", Role: "x", Account: "y|z"},
	} {
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	if g.EdgeCount() != 2 {
		t.Fatalf("EdgeCount = %d, want 2: %+v", g.EdgeCount(), g.Edges())
	}
	clone := g.Clone()
	if err := clone.AddEdge(Edge{Kind: Used, Effect: "p:1", Cause: "a:1", Role: "x|y", Account: "z"}); err != nil {
		t.Fatal(err)
	}
	if clone.EdgeCount() != 2 {
		t.Fatalf("clone took a duplicate: EdgeCount = %d, want 2", clone.EdgeCount())
	}
}

func TestEdgeTypeConstraints(t *testing.T) {
	g := NewGraph()
	g.Artifact("a1", "", "")
	g.Artifact("a2", "", "")
	g.AddNode(Node{ID: "p1", Kind: KindProcess, Label: ""})
	g.AddNode(Node{ID: "p2", Kind: KindProcess, Label: ""})
	g.AddNode(Node{ID: "ag", Kind: KindAgent, Label: ""})
	// Wrong endpoint kinds.
	bad := []Edge{
		{Kind: Used, Effect: "a1", Cause: "a2", Role: "r"},           // effect must be process
		{Kind: Used, Effect: "p1", Cause: "p2", Role: "r"},           // cause must be artifact
		{Kind: WasGeneratedBy, Effect: "p1", Cause: "a1", Role: "r"}, // reversed
		{Kind: WasControlledBy, Effect: "a1", Cause: "ag", Role: "r"},
		{Kind: WasTriggeredBy, Effect: "p1", Cause: "a1"},
		{Kind: WasDerivedFrom, Effect: "a1", Cause: "p1"},
	}
	for i, e := range bad {
		if err := g.AddEdge(e); !errors.Is(err, ErrBadEdge) {
			t.Errorf("bad edge %d accepted: %v", i, err)
		}
	}
	// Missing role on role-required kinds.
	if err := g.AddEdge(Edge{Kind: Used, Effect: "p1", Cause: "a1"}); !errors.Is(err, ErrBadEdge) {
		t.Fatalf("role-less used accepted: %v", err)
	}
	// Unknown nodes.
	if err := g.AddEdge(Edge{Kind: Used, Effect: "zz", Cause: "a1", Role: "r"}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown effect: %v", err)
	}
	if err := g.AddEdge(Edge{Kind: Used, Effect: "p1", Cause: "zz", Role: "r"}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown cause: %v", err)
	}
	// Duplicates are silently deduplicated.
	if err := g.AddEdge(Edge{Kind: Used, Effect: "p1", Cause: "a1", Role: "r"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(Edge{Kind: Used, Effect: "p1", Cause: "a1", Role: "r"}); err != nil {
		t.Fatal(err)
	}
	if got := len(edgesOfKind(g, Used)); got != 1 {
		t.Fatalf("dedup failed: %d used edges", got)
	}
}

func TestInferTriggers(t *testing.T) {
	g := NewGraph()
	g.AddNode(Node{ID: "p1", Kind: KindProcess, Label: ""})
	g.AddNode(Node{ID: "p2", Kind: KindProcess, Label: ""})
	g.Artifact("a", "", "")
	g.AddEdge(Edge{Kind: WasGeneratedBy, Effect: "a", Cause: "p1", Role: "out"})
	g.AddEdge(Edge{Kind: Used, Effect: "p2", Cause: "a", Role: "in"})
	if added := g.InferTriggers(); added != 1 {
		t.Fatalf("InferTriggers added %d", added)
	}
	trigs := edgesOfKind(g, WasTriggeredBy)
	if len(trigs) != 1 || trigs[0].Effect != "p2" || trigs[0].Cause != "p1" {
		t.Fatalf("triggers = %+v", trigs)
	}
	// Idempotent.
	if added := g.InferTriggers(); added != 0 {
		t.Fatalf("second InferTriggers added %d", added)
	}
}

func TestInferDerivations(t *testing.T) {
	g := caseStudyGraph(t)
	added := g.InferDerivations()
	if added != 2 {
		t.Fatalf("InferDerivations added %d, want 2", added)
	}
	devs := edgesOfKind(g, WasDerivedFrom)
	causes := map[string]bool{}
	for _, e := range devs {
		if e.Effect != "a:summary" {
			t.Fatalf("unexpected derivation effect %q", e.Effect)
		}
		causes[e.Cause] = true
	}
	if !causes["a:metadata"] || !causes["a:checklist"] {
		t.Fatalf("derivation causes = %v", causes)
	}
}

func TestMultiStepDerivationChain(t *testing.T) {
	// a3 <- p2 <- a2 <- p1 <- a1: path a3 -> a2 -> a1 after inference.
	g := NewGraph()
	g.Artifact("a1", "", "")
	g.Artifact("a2", "", "")
	g.Artifact("a3", "", "")
	g.AddNode(Node{ID: "p1", Kind: KindProcess, Label: ""})
	g.AddNode(Node{ID: "p2", Kind: KindProcess, Label: ""})
	g.AddEdge(Edge{Kind: Used, Effect: "p1", Cause: "a1", Role: "in"})
	g.AddEdge(Edge{Kind: WasGeneratedBy, Effect: "a2", Cause: "p1", Role: "out"})
	g.AddEdge(Edge{Kind: Used, Effect: "p2", Cause: "a2", Role: "in"})
	g.AddEdge(Edge{Kind: WasGeneratedBy, Effect: "a3", Cause: "p2", Role: "out"})
	g.InferDerivations()
	var chain []string
	for _, e := range edgesOfKind(g, WasDerivedFrom) {
		chain = append(chain, e.Effect+"<-"+e.Cause)
	}
	sort.Strings(chain)
	if strings.Join(chain, ",") != "a2<-a1,a3<-a2" {
		t.Fatalf("derivations = %v", chain)
	}
}

func TestCheckLegality(t *testing.T) {
	g := NewGraph()
	g.Artifact("a", "", "")
	g.AddNode(Node{ID: "p1", Kind: KindProcess, Label: ""})
	g.AddNode(Node{ID: "p2", Kind: KindProcess, Label: ""})
	g.AddEdge(Edge{Kind: WasGeneratedBy, Effect: "a", Cause: "p1", Role: "out"})
	if probs := g.CheckLegality(); len(probs) != 0 {
		t.Fatalf("legal graph flagged: %v", probs)
	}
	// Second generator in the same account: illegal.
	g.AddEdge(Edge{Kind: WasGeneratedBy, Effect: "a", Cause: "p2", Role: "out"})
	if probs := g.CheckLegality(); len(probs) != 1 {
		t.Fatalf("violation not flagged: %v", probs)
	}
	// But two generators in different accounts are fine.
	g2 := NewGraph()
	g2.Artifact("a", "", "")
	g2.AddNode(Node{ID: "p1", Kind: KindProcess, Label: ""})
	g2.AddNode(Node{ID: "p2", Kind: KindProcess, Label: ""})
	g2.AddEdge(Edge{Kind: WasGeneratedBy, Effect: "a", Cause: "p1", Role: "out", Account: "acc1"})
	g2.AddEdge(Edge{Kind: WasGeneratedBy, Effect: "a", Cause: "p2", Role: "out", Account: "acc2"})
	if probs := g2.CheckLegality(); len(probs) != 0 {
		t.Fatalf("cross-account generation flagged: %v", probs)
	}
}

func TestXMLRoundTripOPM(t *testing.T) {
	g := caseStudyGraph(t)
	g.Annotate("a:summary", "quality.accuracy", "0.93")
	when := time.Date(2013, 11, 12, 19, 58, 9, 0, time.UTC)
	g.AddEdge(Edge{Kind: WasDerivedFrom, Effect: "a:summary", Cause: "a:metadata", Time: when, Account: "run1"})
	blob, err := MarshalXML(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalXML(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.NodeCount() != g.NodeCount() || got.EdgeCount() != g.EdgeCount() {
		t.Fatalf("round trip: %d/%d nodes, %d/%d edges", got.NodeCount(), g.NodeCount(), got.EdgeCount(), g.EdgeCount())
	}
	n, _ := got.Node("a:summary")
	if n.Annotations["quality.accuracy"] != "0.93" {
		t.Fatal("annotation lost over XML")
	}
	var found bool
	for _, e := range edgesOfKind(got, WasDerivedFrom) {
		if e.Account == "run1" && e.Time.Equal(when) {
			found = true
		}
	}
	if !found {
		t.Fatal("edge account/time lost over XML")
	}
	if _, err := UnmarshalXML([]byte("<bogus")); err == nil {
		t.Fatal("garbage XML accepted")
	}
}

func TestKindStrings(t *testing.T) {
	if KindArtifact.String() != "artifact" || KindProcess.String() != "process" || KindAgent.String() != "agent" {
		t.Fatal("node kind strings")
	}
	for _, k := range []EdgeKind{Used, WasGeneratedBy, WasControlledBy, WasTriggeredBy, WasDerivedFrom} {
		if strings.HasPrefix(k.String(), "edge(") {
			t.Fatalf("edge kind %d has no name", k)
		}
	}
	if _, err := edgeKindFromString("nope"); err == nil {
		t.Fatal("unknown edge kind parsed")
	}
}

// nodesOfKind returns the graph's nodes of one kind.
func nodesOfKind(g *Graph, k NodeKind) []*Node {
	var out []*Node
	for _, n := range g.Nodes() {
		if n.Kind == k {
			out = append(out, n)
		}
	}
	return out
}

// edgesOfKind returns the graph's edges of one kind.
func edgesOfKind(g *Graph, k EdgeKind) []Edge {
	var out []Edge
	for _, e := range g.Edges() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}
