package provenance

import (
	"sort"

	"repro/internal/opm"
)

// Lineage queries over a captured graph, the oracle the capture tests hold
// the graph to.

// nodesOfKind returns g's nodes of one kind.
func nodesOfKind(g *opm.Graph, k opm.NodeKind) []*opm.Node {
	var out []*opm.Node
	for _, n := range g.Nodes() {
		if n.Kind == k {
			out = append(out, n)
		}
	}
	return out
}

// edgesOfKind returns g's edges of one kind.
func edgesOfKind(g *opm.Graph, k opm.EdgeKind) []opm.Edge {
	var out []opm.Edge
	for _, e := range g.Edges() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// ancestors returns every node transitively causing id, through any edge
// kind, sorted; id itself is excluded.
func ancestors(g *opm.Graph, id string) []string {
	causes := map[string][]string{}
	for _, e := range g.Edges() {
		causes[e.Effect] = append(causes[e.Effect], e.Cause)
	}
	seen := map[string]bool{id: true}
	queue := []string{id}
	var out []string
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range causes[cur] {
			if !seen[next] {
				seen[next] = true
				out = append(out, next)
				queue = append(queue, next)
			}
		}
	}
	sort.Strings(out)
	return out
}

// derivationPath returns one shortest chain of artifact IDs from descendant
// to ancestor along wasDerivedFrom edges, or nil when there is none.
func derivationPath(g *opm.Graph, descendant, ancestor string) []string {
	causes := map[string][]string{}
	for _, e := range edgesOfKind(g, opm.WasDerivedFrom) {
		causes[e.Effect] = append(causes[e.Effect], e.Cause)
	}
	prev := map[string]string{descendant: ""}
	queue := []string{descendant}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == ancestor {
			var path []string
			for at := cur; at != ""; at = prev[at] {
				path = append([]string{at}, path...)
			}
			return path
		}
		for _, next := range causes[cur] {
			if _, ok := prev[next]; !ok {
				prev[next] = cur
				queue = append(queue, next)
			}
		}
	}
	return nil
}

// causesOf returns the causes of the edges of one kind whose effect is id,
// sorted: the agents controlling a process, under opm.WasControlledBy.
func causesOf(g *opm.Graph, k opm.EdgeKind, id string) []string {
	var out []string
	for _, e := range edgesOfKind(g, k) {
		if e.Effect == id {
			out = append(out, e.Cause)
		}
	}
	sort.Strings(out)
	return out
}

// effectsOf returns the effects of the edges of one kind whose cause is id,
// sorted: the processes that used an artifact, under opm.Used.
func effectsOf(g *opm.Graph, k opm.EdgeKind, id string) []string {
	var out []string
	for _, e := range edgesOfKind(g, k) {
		if e.Cause == id {
			out = append(out, e.Effect)
		}
	}
	sort.Strings(out)
	return out
}
