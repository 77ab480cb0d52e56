package taxonomy

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"
)

// Status is the nomenclatural status of a name in the checklist.
type Status uint8

// Name statuses, following Catalogue-of-Life semantics.
const (
	// StatusAccepted means the name is the current valid name of a species.
	StatusAccepted Status = iota
	// StatusSynonym means the name was valid once but now points to an
	// accepted name (the paper's "outdated species name" case).
	StatusSynonym
	// StatusProvisional marks names of uncertain application, e.g. the
	// paper's "Nomen inquirenda" outcome for Elachistocleis ovalis.
	StatusProvisional
	// StatusUnknown means the checklist has never seen the name.
	StatusUnknown
)

// String returns a human-readable status.
func (s Status) String() string {
	switch s {
	case StatusAccepted:
		return "accepted"
	case StatusSynonym:
		return "synonym"
	case StatusProvisional:
		return "provisionally accepted"
	case StatusUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Taxon is one name record in the checklist.
type Taxon struct {
	ID             string
	Name           Name
	Status         Status
	AcceptedID     string // for synonyms: the taxon holding the current name
	Group          string // vertebrate/invertebrate group, e.g. "amphibians"
	Classification Classification
	Authorship     string
	// History records nomenclatural events affecting this name, newest last.
	History []NomenclaturalEvent
}

// NomenclaturalEvent records one change in a name's status, with provenance:
// who published the change and when — the raw material of the paper's
// "knowledge about the world may evolve" argument.
type NomenclaturalEvent struct {
	Date      time.Time
	FromName  string
	ToName    string
	Reference string // publication that caused the change
}

// ErrUnknownName is returned when a name cannot be resolved at all.
var ErrUnknownName = errors.New("taxonomy: unknown name")

// Resolution is the answer to "is this name still valid?".
type Resolution struct {
	Query          string
	Status         Status
	TaxonID        string
	AcceptedName   string // current valid name ("" when unknown)
	AcceptedID     string
	Group          string
	Classification Classification
	// Fuzzy is set when the match required approximate matching; Distance is
	// the edit distance between the query and the matched name.
	Fuzzy    bool
	Distance int
	// History of the matched name (for curation audit trails).
	History []NomenclaturalEvent
	// Degraded marks an answer served from a stale cache while the authority
	// was unreachable (circuit open or every attempt failed). It is set by
	// the client-side resilience layer, never by the authority, and makes
	// degraded-mode assessments visible in provenance instead of silently
	// passing stale data off as fresh.
	Degraded bool `json:"degraded,omitempty"`
}

// Resolver answers name-resolution queries. Implementations include the
// in-process Checklist, the HTTP Client, and the caching/resilient wrappers.
// The context carries the caller's cancellation and deadline — a cancelled
// assessment run aborts its in-flight resolutions instead of leaking them.
type Resolver interface {
	Resolve(ctx context.Context, name string) (Resolution, error)
}

// Checklist is the authority database: every taxon, indexed by canonical
// name, plus a trigram index for fuzzy matching.
type Checklist struct {
	taxa    map[string]*Taxon // by ID
	byName  map[string]*Taxon // by canonical name
	trigram *trigramIndex
	names   []string // sorted canonical names, for deterministic iteration
}

// NewChecklist builds an empty checklist.
func NewChecklist() *Checklist {
	return &Checklist{
		taxa:    make(map[string]*Taxon),
		byName:  make(map[string]*Taxon),
		trigram: newTrigramIndex(),
	}
}

// Add inserts a taxon. The taxon's canonical name must be unique.
func (c *Checklist) Add(t *Taxon) error {
	if t.ID == "" {
		return fmt.Errorf("taxonomy: taxon needs an ID")
	}
	key := t.Name.Canonical()
	if _, dup := c.byName[key]; dup {
		return fmt.Errorf("taxonomy: duplicate name %q", key)
	}
	if _, dup := c.taxa[t.ID]; dup {
		return fmt.Errorf("taxonomy: duplicate taxon ID %q", t.ID)
	}
	c.taxa[t.ID] = t
	c.byName[key] = t
	c.trigram.Add(key)
	i := sort.SearchStrings(c.names, key)
	c.names = append(c.names, "")
	copy(c.names[i+1:], c.names[i:])
	c.names[i] = key
	return nil
}

// Len reports the number of name records (accepted + synonyms).
func (c *Checklist) Len() int { return len(c.taxa) }

// AcceptedCount reports how many names are currently accepted.
func (c *Checklist) AcceptedCount() int {
	n := 0
	for _, t := range c.taxa {
		if t.Status == StatusAccepted {
			n++
		}
	}
	return n
}

// Taxon returns the record with the given ID.
func (c *Checklist) Taxon(id string) (*Taxon, bool) {
	t, ok := c.taxa[id]
	return t, ok
}

// Names returns all canonical names in sorted order (a copy).
func (c *Checklist) Names() []string {
	return append([]string(nil), c.names...)
}

// Resolve implements Resolver with exact matching only; the in-process
// checklist never blocks, so the context goes unused. See ResolveFuzzy for
// the approximate-matching variant used by the curation pipeline.
func (c *Checklist) Resolve(_ context.Context, name string) (Resolution, error) {
	canon := Normalize(name)
	if canon == "" {
		return Resolution{Query: name, Status: StatusUnknown}, fmt.Errorf("%w: %q is not parseable", ErrUnknownName, name)
	}
	t, ok := c.byName[canon]
	if !ok {
		return Resolution{Query: name, Status: StatusUnknown}, fmt.Errorf("%w: %q", ErrUnknownName, name)
	}
	return c.resolution(name, t, false, 0), nil
}

// BatchResolveDetail implements DetailedBatchResolver: each slot is exactly
// what Resolve returns for that name, error included. An in-process lookup
// costs nothing per round trip, so the batch form exists for the engine's
// element lease — one service call, one span and one report pass for an
// iteration's ready names instead of one of each per name.
func (c *Checklist) BatchResolveDetail(ctx context.Context, names []string) []BatchResult {
	out := make([]BatchResult, len(names))
	for i, name := range names {
		out[i].Resolution, out[i].Err = c.Resolve(ctx, name)
	}
	return out
}

// BatchResolve implements BatchResolver: unknown names are StatusUnknown data.
func (c *Checklist) BatchResolve(ctx context.Context, names []string) ([]Resolution, error) {
	return resolutionsFromDetail(names, c.BatchResolveDetail(ctx, names))
}

// ResolveFuzzy resolves with approximate matching: if no exact match exists,
// the closest checklist name within maxDist edits is used.
func (c *Checklist) ResolveFuzzy(name string, maxDist int) (Resolution, error) {
	canon := Normalize(name)
	if canon == "" {
		return Resolution{Query: name, Status: StatusUnknown}, fmt.Errorf("%w: %q is not parseable", ErrUnknownName, name)
	}
	if t, ok := c.byName[canon]; ok {
		return c.resolution(name, t, false, 0), nil
	}
	match, dist, ok := c.trigram.Closest(canon, maxDist)
	if !ok {
		return Resolution{Query: name, Status: StatusUnknown}, fmt.Errorf("%w: %q (no match within %d edits)", ErrUnknownName, name, maxDist)
	}
	return c.resolution(name, c.byName[match], true, dist), nil
}

func (c *Checklist) resolution(query string, t *Taxon, fuzzy bool, dist int) Resolution {
	res := Resolution{
		Query:          query,
		Status:         t.Status,
		TaxonID:        t.ID,
		Group:          t.Group,
		Classification: t.Classification,
		Fuzzy:          fuzzy,
		Distance:       dist,
		History:        t.History,
	}
	switch t.Status {
	case StatusAccepted:
		res.AcceptedName = t.Name.Canonical()
		res.AcceptedID = t.ID
	case StatusSynonym:
		if acc, ok := c.taxa[t.AcceptedID]; ok {
			res.AcceptedName = acc.Name.Canonical()
			res.AcceptedID = acc.ID
		}
	case StatusProvisional:
		// Provisional names have no accepted replacement yet; the paper's
		// example maps Elachistocleis ovalis to "Nomen inquirenda".
		res.AcceptedName = ""
	}
	return res
}

// Deprecate marks the taxon with oldName as a synonym of newTaxon, recording
// the nomenclatural event. It models "species names can change along time".
func (c *Checklist) Deprecate(oldName string, newTaxon *Taxon, when time.Time, reference string) error {
	old, ok := c.byName[Normalize(oldName)]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownName, oldName)
	}
	if _, exists := c.taxa[newTaxon.ID]; !exists {
		if err := c.Add(newTaxon); err != nil {
			return err
		}
	}
	old.Status = StatusSynonym
	old.AcceptedID = newTaxon.ID
	old.History = append(old.History, NomenclaturalEvent{
		Date:      when,
		FromName:  old.Name.Canonical(),
		ToName:    newTaxon.Name.Canonical(),
		Reference: reference,
	})
	return nil
}

// MarkProvisional flags a name as nomen inquirendum (uncertain application).
func (c *Checklist) MarkProvisional(name string, when time.Time, reference string) error {
	t, ok := c.byName[Normalize(name)]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownName, name)
	}
	t.Status = StatusProvisional
	t.History = append(t.History, NomenclaturalEvent{
		Date:      when,
		FromName:  t.Name.Canonical(),
		ToName:    "Nomen inquirendum",
		Reference: reference,
	})
	return nil
}
