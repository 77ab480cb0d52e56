package fnjv

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/storage"
)

// TenantSep separates a record ID's tenant qualifier from the rest
// ("<tenant>:<id>"); package shard routes tenant-qualified IDs by the same
// qualifier (shard.Sep).
const TenantSep = ":"

// speciesCol is the species cell's position in a stored row.
var speciesCol = Schema.Index("species")

// Store is the durable FNJV collection on the embedded database. It keeps
// secondary indexes on species name and state, the retrieval patterns the
// paper describes ("queries on fields such as species taxonomy, and
// location"); no read path uses them today — Query and the name passes scan.
type Store struct {
	db *storage.DB
}

// ErrRecordNotFound is returned for unknown record IDs.
var ErrRecordNotFound = errors.New("fnjv: record not found")

// NewStore opens (creating if needed) the collection tables in db.
func NewStore(db *storage.DB) (*Store, error) {
	if db.Table(Schema.Table) == nil {
		if err := db.Apply(
			storage.CreateTableOp(Schema),
			storage.CreateIndexOp(Schema.Table, "species"),
			storage.CreateIndexOp(Schema.Table, "state"),
		); err != nil {
			return nil, err
		}
	}
	return &Store{db: db}, nil
}

// PutAll bulk-loads records in batches for throughput.
func (s *Store) PutAll(records []*Record) error {
	const batch = 512
	for start := 0; start < len(records); start += batch {
		end := start + batch
		if end > len(records) {
			end = len(records)
		}
		ops := make([]storage.Op, 0, end-start)
		for _, r := range records[start:end] {
			if r.ID == "" {
				return fmt.Errorf("fnjv: record needs an ID")
			}
			ops = append(ops, storage.InsertOp(Schema.Table, ToRow(r)))
		}
		if err := s.db.Apply(ops...); err != nil {
			return err
		}
	}
	return nil
}

// Get loads one record by ID.
func (s *Store) Get(id string) (*Record, error) {
	row, err := s.db.Table(Schema.Table).Get(storage.S(id))
	if err != nil {
		if errors.Is(err, storage.ErrNotFound) {
			return nil, fmt.Errorf("%w: %q", ErrRecordNotFound, id)
		}
		return nil, err
	}
	return FromRow(row)
}

// Update replaces one record.
func (s *Store) Update(r *Record) error {
	return s.db.Update(Schema.Table, ToRow(r))
}

// Len reports the number of records.
func (s *Store) Len() int { return s.db.Table(Schema.Table).Len() }

// Scan walks all records in ID order; fn returning false stops the scan.
func (s *Store) Scan(fn func(*Record) bool) error {
	var convErr error
	s.db.Table(Schema.Table).Scan(func(row storage.Row) bool {
		r, err := FromRow(row)
		if err != nil {
			convErr = err
			return false
		}
		return fn(r)
	})
	return convErr
}

// ScanSpecies implements Records over the raw rows: it reads the id and
// species cells and decodes nothing else. A tenant's scan walks only its own
// key range — the IDs "<tenant>:…" are contiguous in primary-key order.
func (s *Store) ScanSpecies(tenant string, fn func(id, species string) bool) error {
	prefix := ""
	if tenant != "" {
		prefix = tenant + TenantSep
	}
	var err error
	s.db.Table(Schema.Table).ScanFrom(storage.S(prefix), func(row storage.Row) bool {
		if err = checkArity(row); err != nil {
			return false
		}
		id := row[0].Str()
		if !strings.HasPrefix(id, prefix) {
			return false // past the tenant's range
		}
		return fn(id, row[speciesCol].Str())
	})
	return err
}

// DistinctSpecies returns the distinct raw species strings with their record
// counts — the "1929 distinct species names analyzed" population of Fig. 2.
// Blank species are not names and are skipped.
func (s *Store) DistinctSpecies() (map[string]int, error) {
	out := map[string]int{}
	err := s.ScanSpecies("", func(_, species string) bool {
		if species != "" {
			out[species]++
		}
		return true
	})
	return out, err
}

// Stats summarizes collection completeness for quality metrics.
type Stats struct {
	Records         int
	DistinctSpecies int
	WithCoordinates int
	WithEnvFields   int
	WithHabitat     int
}

// Stats computes collection statistics in one scan.
func (s *Store) Stats() (Stats, error) {
	var st Stats
	species := map[string]bool{}
	err := s.Scan(func(r *Record) bool {
		st.Records++
		if r.Species != "" {
			species[r.Species] = true
		}
		if r.HasCoordinates() {
			st.WithCoordinates++
		}
		if r.AirTempC != nil && r.HumidityPct != nil && r.Atmosphere != "" {
			st.WithEnvFields++
		}
		if r.Habitat != "" {
			st.WithHabitat++
		}
		return true
	})
	st.DistinctSpecies = len(species)
	return st, err
}
