// Package obs implements the observation data model the paper builds on
// (§II.C, citing Bowers et al.'s OBSDB): "an observation represents an
// assertion that a particular entity was observed and that the corresponding
// set of measurements were recorded". Observation databases are
// heterogeneous — sounds, museum specimens, plot surveys — so the model is
// generic: typed entities, observations with time/place/protocol context,
// and arbitrary characteristic/value/unit measurements, all stored uniformly
// on the embedded database. The system stores its own runtime counters in it
// (FromRuntimeMetrics).
package obs

import (
	"fmt"
	"time"

	"repro/internal/geo"
	"repro/internal/storage"
)

// Entity is the thing observed: an organism occurrence, a site, a device.
type Entity struct {
	ID    string
	Type  string // e.g. "organism", "site"
	Label string // e.g. the species name
}

// ValueKind types a measurement value.
type ValueKind uint8

// Measurement value kinds.
const (
	ValueFloat ValueKind = iota
	ValueString
	ValueBool
)

// Measurement is one recorded characteristic of an observation.
type Measurement struct {
	Characteristic string // e.g. "air_temperature"
	Kind           ValueKind
	Number         float64
	Text           string
	Flag           bool
	Unit           string // e.g. "°C"
}

// Float builds a numeric measurement.
func Float(characteristic string, v float64, unit string) Measurement {
	return Measurement{Characteristic: characteristic, Kind: ValueFloat, Number: v, Unit: unit}
}

// Value renders the measurement value for display.
func (m Measurement) Value() string {
	switch m.Kind {
	case ValueFloat:
		s := fmt.Sprintf("%g", m.Number)
		if m.Unit != "" {
			s += " " + m.Unit
		}
		return s
	case ValueString:
		return m.Text
	case ValueBool:
		return fmt.Sprintf("%t", m.Flag)
	default:
		return "?"
	}
}

// Observation asserts that Entity was observed with Measurements, in a
// spatio-temporal and methodological context.
type Observation struct {
	ID           string
	Entity       Entity
	At           time.Time
	Where        *geo.Point
	Protocol     string // observation methodology ("how")
	ObservedBy   string
	Measurements []Measurement
}

// --- storage mapping ---

const (
	obsTable  = "observations"
	measTable = "measurements"
)

var (
	obsSchema = storage.MustSchema(obsTable,
		storage.Column{Name: "id", Kind: storage.KindString},
		storage.Column{Name: "entity_id", Kind: storage.KindString},
		storage.Column{Name: "entity_type", Kind: storage.KindString, Nullable: true},
		storage.Column{Name: "entity_label", Kind: storage.KindString, Nullable: true},
		storage.Column{Name: "at", Kind: storage.KindTime, Nullable: true},
		storage.Column{Name: "lat", Kind: storage.KindFloat, Nullable: true},
		storage.Column{Name: "lon", Kind: storage.KindFloat, Nullable: true},
		storage.Column{Name: "protocol", Kind: storage.KindString, Nullable: true},
		storage.Column{Name: "observed_by", Kind: storage.KindString, Nullable: true},
	)
	measSchema = storage.MustSchema(measTable,
		storage.Column{Name: "key", Kind: storage.KindString}, // obsID/seq
		storage.Column{Name: "obs_id", Kind: storage.KindString},
		storage.Column{Name: "characteristic", Kind: storage.KindString},
		storage.Column{Name: "kind", Kind: storage.KindInt},
		storage.Column{Name: "number", Kind: storage.KindFloat, Nullable: true},
		storage.Column{Name: "text", Kind: storage.KindString, Nullable: true},
		storage.Column{Name: "flag", Kind: storage.KindBool, Nullable: true},
		storage.Column{Name: "unit", Kind: storage.KindString, Nullable: true},
	)
)

// DB is the observation store.
type DB struct {
	db *storage.DB
}

// Open opens (creating if needed) the observation tables in db.
func Open(db *storage.DB) (*DB, error) {
	if db.Table(obsTable) == nil {
		if err := db.Apply(
			storage.CreateTableOp(obsSchema),
			storage.CreateTableOp(measSchema),
			storage.CreateIndexOp(obsTable, "entity_label"),
			storage.CreateIndexOp(measTable, "obs_id"),
			storage.CreateIndexOp(measTable, "characteristic"),
		); err != nil {
			return nil, err
		}
	}
	return &DB{db: db}, nil
}

// Put stores one observation and its measurements atomically.
func (d *DB) Put(o Observation) error {
	if o.ID == "" || o.Entity.ID == "" {
		return fmt.Errorf("obs: observation needs ID and entity ID")
	}
	lat, lon := storage.Null(), storage.Null()
	if o.Where != nil {
		lat, lon = storage.F(o.Where.Lat), storage.F(o.Where.Lon)
	}
	at := storage.Null()
	if !o.At.IsZero() {
		at = storage.T(o.At)
	}
	ops := []storage.Op{storage.InsertOp(obsTable, storage.Row{
		storage.S(o.ID), storage.S(o.Entity.ID), storage.S(o.Entity.Type),
		storage.S(o.Entity.Label), at, lat, lon,
		storage.S(o.Protocol), storage.S(o.ObservedBy),
	})}
	for i, m := range o.Measurements {
		ops = append(ops, storage.InsertOp(measTable, storage.Row{
			storage.S(fmt.Sprintf("%s/%03d", o.ID, i)),
			storage.S(o.ID),
			storage.S(m.Characteristic),
			storage.I(int64(m.Kind)),
			storage.F(m.Number),
			storage.S(m.Text),
			storage.B(m.Flag),
			storage.S(m.Unit),
		}))
	}
	return d.db.Apply(ops...)
}
