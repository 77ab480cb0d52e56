package linkeddata

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/fnjv"
	"repro/internal/taxonomy"
)

// Shadows (Mota & Medeiros, DESWEB 2013): a flexible document representation
// where each document casts a "shadow" — the set of entities it mentions.
// Cross-referencing shadows connects papers across distinct research
// communities, even when they appear to work on seemingly unrelated issues.

// Document is one scientific artifact (paper, report, dataset description).
type Document struct {
	ID        string
	Title     string
	Community string // e.g. "bioacoustics", "taxonomy", "ecology"
	// Text is the raw content the shadow is extracted from.
	Text string
}

// Shadow is the extracted entity set of a document.
type Shadow struct {
	DocumentID string
	// Entities maps canonical entity strings (e.g. species names) to the
	// surface forms found.
	Entities map[string][]string
}

// ExtractShadow finds checklist species names mentioned in the document
// text, matching case-insensitively against the authority's canonical names.
func ExtractShadow(doc Document, checklist *taxonomy.Checklist) Shadow {
	sh := Shadow{DocumentID: doc.ID, Entities: map[string][]string{}}
	lower := strings.ToLower(doc.Text)
	for _, name := range checklist.Names() {
		needle := strings.ToLower(name)
		if idx := strings.Index(lower, needle); idx >= 0 {
			surface := doc.Text[idx : idx+len(needle)]
			sh.Entities[name] = append(sh.Entities[name], surface)
		}
	}
	return sh
}

// CrossReference is one discovered connection: two documents from different
// communities sharing an entity.
type CrossReference struct {
	Entity     string
	DocA       string
	CommunityA string
	DocB       string
	CommunityB string
}

// CrossReferences finds all entity-mediated connections between documents of
// *different* communities — the paper's "cross-referencing scientific papers
// across distinct research communities". Results are sorted by entity, then
// document IDs.
func CrossReferences(shadows []Shadow, docs map[string]Document) []CrossReference {
	byEntity := map[string][]string{} // entity -> doc IDs
	for _, sh := range shadows {
		for entity := range sh.Entities {
			byEntity[entity] = append(byEntity[entity], sh.DocumentID)
		}
	}
	var out []CrossReference
	for entity, ids := range byEntity {
		sort.Strings(ids)
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				a, b := docs[ids[i]], docs[ids[j]]
				if a.Community == b.Community {
					continue
				}
				out = append(out, CrossReference{
					Entity: entity,
					DocA:   a.ID, CommunityA: a.Community,
					DocB: b.ID, CommunityB: b.Community,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Entity != out[j].Entity {
			return out[i].Entity < out[j].Entity
		}
		if out[i].DocA != out[j].DocA {
			return out[i].DocA < out[j].DocA
		}
		return out[i].DocB < out[j].DocB
	})
	return out
}

// --- Exporters: curated metadata and provenance as Linked Data ---

const recordBase = "https://fnjv.example/recording/"

// RecordIRI returns the IRI of a collection record.
func RecordIRI(id string) string { return recordBase + id }

// ExportRecord adds the Darwin-Core-style triples of one record. The curated
// name (post-review) is exported as the accepted name usage while the stored
// historical name stays the scientificName — preserving both views.
func ExportRecord(s *Store, r *fnjv.Record, curatedName string) error {
	iri := RecordIRI(r.ID)
	add := func(p string, o Term) error {
		return s.Add(Triple{Subject: iri, Predicate: p, Object: o})
	}
	if err := add(RDFType, IRI(TypeRecording)); err != nil {
		return err
	}
	if r.Species != "" {
		if err := add(DwcScientific, Literal(r.Species)); err != nil {
			return err
		}
	}
	if curatedName != "" && curatedName != r.Species {
		if err := add(DwcAccepted, Literal(curatedName)); err != nil {
			return err
		}
	}
	if r.Class != "" {
		if err := add(DwcClass, Literal(r.Class)); err != nil {
			return err
		}
	}
	if r.City != "" {
		if err := add(DwcLocality, Literal(r.City)); err != nil {
			return err
		}
	}
	if r.State != "" {
		if err := add(DwcState, Literal(r.State)); err != nil {
			return err
		}
	}
	if !r.CollectDate.IsZero() {
		if err := add(DwcEventDate, Literal(r.CollectDate.Format(time.DateOnly))); err != nil {
			return err
		}
	}
	if r.HasCoordinates() {
		if err := add(DwcLat, Literal(strconv.FormatFloat(*r.Latitude, 'f', 5, 64))); err != nil {
			return err
		}
		if err := add(DwcLon, Literal(strconv.FormatFloat(*r.Longitude, 'f', 5, 64))); err != nil {
			return err
		}
	}
	if r.Recordist != "" {
		if err := add(DCCreator, Literal(r.Recordist)); err != nil {
			return err
		}
	}
	return nil
}

// ExportDocument adds a document plus its shadow entities.
func ExportDocument(s *Store, doc Document, sh Shadow, base string) error {
	iri := base + doc.ID
	if err := s.Add(Triple{Subject: iri, Predicate: RDFType, Object: IRI(TypeDocument)}); err != nil {
		return err
	}
	if err := s.Add(Triple{Subject: iri, Predicate: DCTitle, Object: Literal(doc.Title)}); err != nil {
		return err
	}
	if doc.Community != "" {
		if err := s.Add(Triple{Subject: iri, Predicate: DCSubject, Object: Literal(doc.Community)}); err != nil {
			return err
		}
	}
	entities := make([]string, 0, len(sh.Entities))
	for e := range sh.Entities {
		entities = append(entities, e)
	}
	sort.Strings(entities)
	for _, e := range entities {
		if err := s.Add(Triple{Subject: iri, Predicate: DwcScientific, Object: Literal(e)}); err != nil {
			return err
		}
	}
	return nil
}

// RecordsMentioning returns the recording IRIs whose scientificName (or
// accepted name) equals the entity — connecting literature shadows back to
// collection records.
func RecordsMentioning(s *Store, entity string) []string {
	set := map[string]bool{}
	for _, subj := range s.Subjects(DwcScientific, Literal(entity)) {
		if strings.HasPrefix(subj, recordBase) {
			set[subj] = true
		}
	}
	for _, subj := range s.Subjects(DwcAccepted, Literal(entity)) {
		if strings.HasPrefix(subj, recordBase) {
			set[subj] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
