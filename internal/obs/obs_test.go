package obs

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/storage"
)

// The read side of DB, which only the tests use: the oracle for Put.

// ErrObservationNotFound is returned for unknown observation IDs.
var ErrObservationNotFound = errors.New("obs: observation not found")

// Get loads one observation with its measurements.
func (d *DB) Get(id string) (Observation, error) {
	row, err := d.db.Table(obsTable).Get(storage.S(id))
	if err != nil {
		if errors.Is(err, storage.ErrNotFound) {
			return Observation{}, fmt.Errorf("%w: %q", ErrObservationNotFound, id)
		}
		return Observation{}, err
	}
	o := rowToObs(row)
	meas, err := d.db.Table(measTable).Lookup("obs_id", storage.S(id))
	if err != nil {
		return Observation{}, err
	}
	for _, mr := range meas {
		o.Measurements = append(o.Measurements, rowToMeas(mr))
	}
	return o, nil
}

func rowToObs(row storage.Row) Observation {
	o := Observation{
		ID: row.Get(obsSchema, "id").Str(),
		Entity: Entity{
			ID:    row.Get(obsSchema, "entity_id").Str(),
			Type:  row.Get(obsSchema, "entity_type").Str(),
			Label: row.Get(obsSchema, "entity_label").Str(),
		},
		Protocol:   row.Get(obsSchema, "protocol").Str(),
		ObservedBy: row.Get(obsSchema, "observed_by").Str(),
	}
	if v := row.Get(obsSchema, "at"); !v.IsNull() {
		o.At = v.Time()
	}
	if la, lo := row.Get(obsSchema, "lat"), row.Get(obsSchema, "lon"); !la.IsNull() && !lo.IsNull() {
		o.Where = &geo.Point{Lat: la.Float(), Lon: lo.Float()}
	}
	return o
}

func rowToMeas(row storage.Row) Measurement {
	return Measurement{
		Characteristic: row.Get(measSchema, "characteristic").Str(),
		Kind:           ValueKind(row.Get(measSchema, "kind").Int()),
		Number:         row.Get(measSchema, "number").Float(),
		Text:           row.Get(measSchema, "text").Str(),
		Flag:           row.Get(measSchema, "flag").Equal(storage.B(true)),
		Unit:           row.Get(measSchema, "unit").Str(),
	}
}

func openObs(t *testing.T) *DB {
	t.Helper()
	db, err := storage.Open(t.TempDir(), storage.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	od, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	return od
}

func sampleObservation() Observation {
	return Observation{
		ID:         "obs:1",
		Entity:     Entity{ID: "organism:1", Type: "organism", Label: "Hyla faber"},
		At:         time.Date(1978, 11, 3, 19, 30, 0, 0, time.UTC),
		Where:      &geo.Point{Lat: -22.9, Lon: -47.06},
		Protocol:   "field sound recording",
		ObservedBy: "J. Vielliard",
		Measurements: []Measurement{
			Float("air_temperature", 24.5, "°C"),
			{Characteristic: "habitat", Kind: ValueString, Text: "pond margin"},
			{Characteristic: "vocalization_recorded", Kind: ValueBool, Flag: true},
		},
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	od := openObs(t)
	o := sampleObservation()
	if err := od.Put(o); err != nil {
		t.Fatal(err)
	}
	got, err := od.Get("obs:1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Entity.Label != "Hyla faber" || got.Protocol != o.Protocol || !got.At.Equal(o.At) {
		t.Fatalf("round trip = %+v", got)
	}
	if got.Where == nil || got.Where.Lat != -22.9 {
		t.Fatalf("location lost: %+v", got.Where)
	}
	if len(got.Measurements) != 3 {
		t.Fatalf("measurements = %d", len(got.Measurements))
	}
	byChar := map[string]Measurement{}
	for _, m := range got.Measurements {
		byChar[m.Characteristic] = m
	}
	if m := byChar["air_temperature"]; m.Kind != ValueFloat || m.Number != 24.5 || m.Unit != "°C" {
		t.Fatalf("temperature = %+v", m)
	}
	if m := byChar["habitat"]; m.Kind != ValueString || m.Text != "pond margin" {
		t.Fatalf("habitat = %+v", m)
	}
	if m := byChar["vocalization_recorded"]; m.Kind != ValueBool || !m.Flag {
		t.Fatalf("flag = %+v", m)
	}
	// Value rendering.
	if byChar["air_temperature"].Value() != "24.5 °C" {
		t.Fatalf("Value() = %q", byChar["air_temperature"].Value())
	}
	// Missing ID cases.
	if _, err := od.Get("obs:missing"); !errors.Is(err, ErrObservationNotFound) {
		t.Fatalf("missing get: %v", err)
	}
	if err := od.Put(Observation{}); err == nil {
		t.Fatal("empty observation accepted")
	}
}

func TestOptionalContext(t *testing.T) {
	od := openObs(t)
	o := Observation{ID: "obs:min", Entity: Entity{ID: "e1"}}
	if err := od.Put(o); err != nil {
		t.Fatal(err)
	}
	got, err := od.Get("obs:min")
	if err != nil {
		t.Fatal(err)
	}
	if got.Where != nil || !got.At.IsZero() || len(got.Measurements) != 0 {
		t.Fatalf("minimal observation = %+v", got)
	}
}

func TestFromRuntimeMetrics(t *testing.T) {
	at := time.Date(2014, 3, 31, 12, 0, 0, 0, time.UTC)
	o := FromRuntimeMetrics("workflow-engine", at, map[string]float64{
		"engine.peak_in_flight":      8,
		"engine.elements_dispatched": 1929,
		"engine.invocations":         1930,
	})
	if o.Entity.ID != "subsystem:workflow-engine" || o.Entity.Type != "subsystem" {
		t.Fatalf("entity = %+v", o.Entity)
	}
	if o.Protocol != RuntimeProtocol {
		t.Fatalf("protocol = %q", o.Protocol)
	}
	// Deterministic (sorted) measurement order regardless of map iteration.
	want := []string{"engine.elements_dispatched", "engine.invocations", "engine.peak_in_flight"}
	if len(o.Measurements) != len(want) {
		t.Fatalf("measurements = %+v", o.Measurements)
	}
	for i, name := range want {
		if o.Measurements[i].Characteristic != name {
			t.Fatalf("measurement %d = %q, want %q", i, o.Measurements[i].Characteristic, name)
		}
	}

	// Runtime telemetry flows through the same store as any other
	// observation.
	db := openObs(t)
	if err := db.Put(o); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get(o.ID)
	if err != nil || len(got.Measurements) != len(want) {
		t.Fatalf("stored runtime observation: %+v %v", got, err)
	}
}

// The string and boolean measurement kinds, which only the tests write.
const (
	ValueString ValueKind = 1
	ValueBool   ValueKind = 2
)

// Value renders the measurement value for display; only the tests read it.
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
