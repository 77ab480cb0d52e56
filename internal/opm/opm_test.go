package opm

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// caseStudyGraph builds the Fig. 3 provenance shape: metadata artifact ->
// detection process (controlled by curator, using the authority list) ->
// summary artifact.
func caseStudyGraph(t testing.TB) *Graph {
	t.Helper()
	g := NewGraph()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(artifact(g, "a:metadata", "FNJV sound metadata", "11898 records"))
	must(artifact(g, "a:checklist", "Catalogue of Life", "species list"))
	must(artifact(g, "a:summary", "updated species names", "134 outdated"))
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
	if err := artifact(g, "a", "x", ""); err != nil {
		t.Fatal(err)
	}
	if err := artifact(g, "a", "x", ""); !errors.Is(err, ErrDuplicateNode) {
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
	if err := artifact(g, "a:1", "a", ""); err != nil {
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
	artifact(g, "a1", "", "")
	artifact(g, "a2", "", "")
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
	artifact(g, "a", "", "")
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
	artifact(g, "a1", "", "")
	artifact(g, "a2", "", "")
	artifact(g, "a3", "", "")
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
	artifact(g, "a", "", "")
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
	artifact(g2, "a", "", "")
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
	got, err := UnmarshalXML(MarshalXML(g))
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
	// A time whose offset moves it out of years 0000–9999 in UTC would
	// export as a time no decoder reads back, so it is not accepted.
	for _, ts := range []string{"9999-12-31T23:00:00-05:00", "0000-01-01T00:30:00+01:00"} {
		in := `<opmGraph><artifacts><artifact id="a"></artifact><artifact id="b"></artifact></artifacts>` +
			`<causalDependencies><dependency type="wasDerivedFrom"><effect>a</effect><cause>b</cause><time>` + ts +
			`</time></dependency></causalDependencies></opmGraph>`
		if _, err := UnmarshalXML([]byte(in)); err == nil {
			t.Fatalf("edge time %s accepted", ts)
		}
	}
}

// oracleMarshalXML is the encoding/xml writer MarshalXML replaced: it builds
// the xmlGraph of g and marshals it by reflection. MarshalXML must write its
// bytes exactly.
func oracleMarshalXML(g *Graph) ([]byte, error) {
	var x xmlGraph
	for _, n := range g.Nodes() {
		xn := xmlNode{ID: n.ID, Label: n.Label, Value: n.Value}
		keys := make([]string, 0, len(n.Annotations))
		for k := range n.Annotations {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			xn.Annotations = append(xn.Annotations, xmlAnn{Key: k, Value: n.Annotations[k]})
		}
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

// hostileStrings are the texts the XML escaper must get right: markup,
// whitespace it escapes, control characters, invalid UTF-8, runes outside
// the XML character range, a literal U+FFFD and multi-byte text.
var hostileStrings = []string{
	"", " ", "plain", `"quoted"`, "it's", "a&b", "<tag>", "x>y", "]]>",
	"tab\there", "line\nbreak", "cr\rlf\r\n", "\x00", "\x01\x1f", "\x7f",
	"\xff", "caf\xc3", "\xed\xa0\x80", "\uFFFD", "\uFFFE\uFFFF", "\U0001F438 sapo",
	"S\u00e3o Paulo", "\u2028", "&#34;", "trailing\xe2\x80",
}

// hostileGraph puts every hostile string into each kind of field: IDs,
// labels, values, annotation keys and values, roles and accounts. It has a
// node of each kind, an artifact and a process with no children, and one
// edge of each kind, timed in a zone other than UTC.
func hostileGraph(t testing.TB) *Graph {
	all := strings.Join(hostileStrings, "")
	g := NewGraph()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddNode(Node{ID: "a" + all, Kind: KindArtifact, Label: all}))
	must(g.AddNode(Node{ID: "a:bare", Kind: KindArtifact}))
	must(g.AddNode(Node{ID: "p", Kind: KindProcess, Value: all}))
	must(g.AddNode(Node{ID: "p:bare", Kind: KindProcess}))
	must(g.AddNode(Node{ID: "g", Kind: KindAgent, Annotations: map[string]string{all: all, "": "x"}}))
	when := time.Date(2013, 11, 12, 19, 58, 9, 7, time.FixedZone("BRT", -3*3600))
	must(g.AddEdge(Edge{Kind: Used, Effect: "p", Cause: "a" + all, Role: all}))
	must(g.AddEdge(Edge{Kind: WasGeneratedBy, Effect: "a:bare", Cause: "p", Role: "out", Time: when}))
	must(g.AddEdge(Edge{Kind: WasControlledBy, Effect: "p", Cause: "g", Role: "<op>"}))
	must(g.AddEdge(Edge{Kind: WasTriggeredBy, Effect: "p:bare", Cause: "p", Account: all}))
	must(g.AddEdge(Edge{Kind: WasDerivedFrom, Effect: "a:bare", Cause: "a" + all}))
	return g
}

// randomEdge draws an edge of a random kind between nodes of g, with string
// fields from pool; AddEdge rejects the ones whose endpoints do not fit.
func randomEdge(rng *rand.Rand, g *Graph, pool []string) Edge {
	nodes := g.Nodes()
	pick := func() string { return nodes[rng.Intn(len(nodes))].ID }
	e := Edge{Kind: EdgeKind(rng.Intn(5)), Effect: pick(), Cause: pick(), Role: pool[rng.Intn(len(pool))]}
	if rng.Intn(2) == 0 {
		e.Account = pool[rng.Intn(len(pool))]
	}
	return e
}

// randomGraph draws a graph with 0–12 nodes of random kinds, hostile or
// plain strings, 0–3 annotations each, and up to 30 edges, some timed.
func randomGraph(rng *rand.Rand) *Graph {
	g := NewGraph()
	str := func() string {
		if rng.Intn(3) == 0 {
			return ""
		}
		var sb strings.Builder
		for j := rng.Intn(3); j >= 0; j-- {
			sb.WriteString(hostileStrings[rng.Intn(len(hostileStrings))])
		}
		return sb.String()
	}
	for i := rng.Intn(13); i > 0; i-- {
		n := Node{ID: str() + fmt.Sprint(i), Kind: NodeKind(rng.Intn(3)), Label: str(), Value: str(),
			Annotations: map[string]string{}}
		for j := rng.Intn(4); j > 0; j-- {
			n.Annotations[str()] = str()
		}
		_ = g.AddNode(n)
	}
	if g.NodeCount() == 0 {
		return g
	}
	pool := []string{"", "in", "out", "a&b", "\xff", "\U0001F438"}
	zones := []*time.Location{time.UTC, time.FixedZone("BRT", -3*3600), time.FixedZone("X", 5*3600+1800)}
	for i := rng.Intn(31); i > 0; i-- {
		e := randomEdge(rng, g, pool)
		if rng.Intn(2) == 0 {
			e.Time = time.Date(1950+rng.Intn(100), time.Month(1+rng.Intn(12)), 1+rng.Intn(28),
				rng.Intn(24), rng.Intn(60), rng.Intn(60), rng.Intn(3)*rng.Intn(1e9), zones[rng.Intn(len(zones))])
		}
		_ = g.AddEdge(e)
	}
	return g
}

// assertMarshalMatchesOracle fails unless MarshalXML writes the oracle's
// bytes for g.
func assertMarshalMatchesOracle(t testing.TB, g *Graph) []byte {
	t.Helper()
	want, err := oracleMarshalXML(g)
	if err != nil {
		t.Fatal(err)
	}
	got := MarshalXML(g)
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("MarshalXML differs from encoding/xml at byte %d:\n got …%q\nwant …%q", i,
			got[max(0, i-40):min(len(got), i+40)], want[max(0, i-40):min(len(want), i+40)])
	}
	return got
}

func TestMarshalXMLMatchesEncodingXML(t *testing.T) {
	annotated := caseStudyGraph(t)
	annotated.Annotate("a:summary", "quality.accuracy", "0.93")
	annotated.Annotate("a:summary", "quality.completeness", "1")
	annotated.AddEdge(Edge{Kind: WasDerivedFrom, Effect: "a:summary", Cause: "a:metadata",
		Time: time.Date(2013, 11, 12, 19, 58, 9, 120000000, time.UTC), Account: "run1"})
	bare := NewGraph()
	bare.AddNode(Node{ID: "p", Kind: KindProcess})
	for name, g := range map[string]*Graph{
		"empty":      NewGraph(),
		"case study": caseStudyGraph(t),
		"annotated":  annotated,
		"bare node":  bare,
		"hostile":    hostileGraph(t),
	} {
		t.Run(name, func(t *testing.T) { assertMarshalMatchesOracle(t, g) })
	}
	rng := rand.New(rand.NewSource(39))
	for i := 0; i < 3000; i++ {
		assertMarshalMatchesOracle(t, randomGraph(rng))
	}
}

// sameGraph fails unless a and b hold the same nodes and the same edges in
// the same order, edge times compared as instants.
func sameGraph(t testing.TB, a, b *Graph) {
	t.Helper()
	an, bn := a.Nodes(), b.Nodes()
	if len(an) != len(bn) || a.EdgeCount() != b.EdgeCount() {
		t.Fatalf("graphs differ: %d/%d nodes, %d/%d edges", len(an), len(bn), a.EdgeCount(), b.EdgeCount())
	}
	for i := range an {
		x, y := an[i], bn[i]
		if x.ID != y.ID || x.Kind != y.Kind || x.Label != y.Label || x.Value != y.Value || len(x.Annotations) != len(y.Annotations) {
			t.Fatalf("node %d: %+v vs %+v", i, *x, *y)
		}
		for k, v := range x.Annotations {
			if w, ok := y.Annotations[k]; !ok || w != v {
				t.Fatalf("node %q annotation %q: %q vs %q", x.ID, k, v, w)
			}
		}
	}
	ae, be := a.Edges(), b.Edges()
	for i := range ae {
		x, y := ae[i], be[i]
		if x.key() != y.key() || !x.Time.Equal(y.Time) {
			t.Fatalf("edge %d: %+v vs %+v", i, x, y)
		}
	}
}

// FuzzOPMXML: arbitrary bytes never panic UnmarshalXML; any graph that
// decodes marshals to the encoding/xml oracle's bytes, and decoding those
// bytes gives the same graph back.
func FuzzOPMXML(f *testing.F) {
	for _, g := range []*Graph{caseStudyGraph(f), hostileGraph(f)} {
		blob, err := oracleMarshalXML(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte("<opmGraph><agents></agents></opmGraph>"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := UnmarshalXML(data)
		if err != nil {
			return
		}
		blob := assertMarshalMatchesOracle(t, g)
		back, err := UnmarshalXML(blob)
		if err != nil {
			t.Fatalf("re-decoding the export: %v\n%s", err, blob)
		}
		sameGraph(t, g, back)
	})
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

// artifact adds an artifact node to g.
func artifact(g *Graph, id, label, value string) error {
	return g.AddNode(Node{ID: id, Kind: KindArtifact, Label: label, Value: value})
}
