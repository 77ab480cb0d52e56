package taxonomy

import "sort"

// Fuzzy matching: a trigram index shortlists candidate names, then a bounded
// Damerau-Levenshtein distance picks the closest. This is the standard
// approach for repairing misspelled species names in legacy collection
// metadata, where typists introduced single-character slips decades ago.

type trigramIndex struct {
	grams map[string][]int // trigram -> indexes into names
	names []string
}

func newTrigramIndex() *trigramIndex {
	return &trigramIndex{grams: make(map[string][]int)}
}

// trigramsOf emits the padded trigrams of s ("$$a", "$ab", ..., "yz$").
func trigramsOf(s string) []string {
	padded := "$$" + s + "$"
	out := make([]string, 0, len(padded))
	for i := 0; i+3 <= len(padded); i++ {
		out = append(out, padded[i:i+3])
	}
	return out
}

// Add indexes one name.
func (ti *trigramIndex) Add(name string) {
	id := len(ti.names)
	ti.names = append(ti.names, name)
	seen := map[string]bool{}
	for _, g := range trigramsOf(name) {
		if !seen[g] {
			seen[g] = true
			ti.grams[g] = append(ti.grams[g], id)
		}
	}
}

// candidates returns name indexes sharing at least one trigram with q,
// ordered by shared-trigram count descending.
func (ti *trigramIndex) candidates(q string, limit int) []int {
	counts := map[int]int{}
	for _, g := range trigramsOf(q) {
		for _, id := range ti.grams[g] {
			counts[id]++
		}
	}
	ids := make([]int, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		if counts[ids[a]] != counts[ids[b]] {
			return counts[ids[a]] > counts[ids[b]]
		}
		return ti.names[ids[a]] < ti.names[ids[b]] // deterministic ties
	})
	if len(ids) > limit {
		ids = ids[:limit]
	}
	return ids
}

// Closest returns the indexed name nearest to q within maxDist Damerau-
// Levenshtein edits. Ties break lexicographically for determinism.
func (ti *trigramIndex) Closest(q string, maxDist int) (name string, dist int, ok bool) {
	best, bestDist := "", maxDist+1
	for _, id := range ti.candidates(q, 64) {
		cand := ti.names[id]
		d, within := boundedDistance(q, cand, bestDist-1)
		if within && (d < bestDist || (d == bestDist && cand < best)) {
			best, bestDist = cand, d
		}
	}
	if bestDist > maxDist {
		return "", 0, false
	}
	return best, bestDist, true
}

// boundedDistance computes the Damerau-Levenshtein distance, giving up once
// it provably exceeds bound. It reports the distance and whether ≤ bound.
func boundedDistance(a, b string, bound int) (int, bool) {
	if bound < 0 {
		return 0, false
	}
	la, lb := len(a), len(b)
	if la-lb > bound || lb-la > bound {
		return 0, false
	}
	// Three rolling rows for the transposition term.
	prev2 := make([]int, lb+1)
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		rowMin := cur[0]
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1              // deletion
			if v := cur[j-1] + 1; v < m { // insertion
				m = v
			}
			if v := prev[j-1] + cost; v < m { // substitution
				m = v
			}
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				if v := prev2[j-2] + 1; v < m { // transposition
					m = v
				}
			}
			cur[j] = m
			if m < rowMin {
				rowMin = m
			}
		}
		if rowMin > bound {
			return 0, false
		}
		prev2, prev, cur = prev, cur, prev2
	}
	if prev[lb] > bound {
		return 0, false
	}
	return prev[lb], true
}
