// Package fnjv models the Fonoteca Neotropical Jacques Vielliard collection
// of the case study: the observation-record schema of Table II, a calibrated
// synthetic generator that reproduces the collection's published population
// statistics (11 898 records, 1 929 distinct species names, 7 % of names
// outdated), and a durable collection store on the embedded database.
package fnjv

import (
	"fmt"
	"time"

	"repro/internal/storage"
)

// Record is one animal-sound observation record. Field groups follow
// Table II of the paper:
//
//	row 1 — what was observed (taxonomic identification)
//	row 2 — when/where/conditions of the observation
//	row 3 — how the recording was made
//
// Pointers mark nullable fields; missing values are the cleaning pipeline's
// raw material. The paper reports 51 metadata fields in the live collection;
// this schema carries the 22 published ones plus the curation-relevant
// extras (coordinates, recordist, duration, notes).
type Record struct {
	ID string

	// Row 1 — identification.
	Phylum         string
	Class          string
	Order          string
	Family         string
	Genus          string
	Species        string // raw binomial as annotated in the field (may be dirty)
	Gender         string // "male", "female", "" unknown
	NumIndividuals int

	// Row 2 — observation conditions.
	CollectDate  time.Time
	CollectTime  string // "HH:MM", may be empty
	Country      string
	State        string
	City         string
	Locality     string // free-text locality description
	Habitat      string
	MicroHabitat string
	AirTempC     *float64
	HumidityPct  *float64
	Atmosphere   string
	Latitude     *float64 // usually absent: most recordings predate GPS
	Longitude    *float64

	// Row 3 — recording features.
	RecordingDevice string
	MicrophoneModel string
	SoundFileFormat string
	FrequencyKHz    float64
	Recordist       string
	DurationSec     int
	Notes           string
}

// HasCoordinates reports whether both latitude and longitude are present.
func (r *Record) HasCoordinates() bool { return r.Latitude != nil && r.Longitude != nil }

// FieldNames lists the record's metadata fields in schema order; used by
// completeness metrics and the Table II experiment.
func FieldNames() []string {
	return []string{
		"phylum", "class", "order", "family", "genus", "species", "gender", "num_individuals",
		"collect_date", "collect_time", "country", "state", "city", "locality",
		"habitat", "micro_habitat", "air_temp_c", "humidity_pct", "atmosphere", "latitude", "longitude",
		"recording_device", "microphone_model", "sound_file_format", "frequency_khz",
		"recordist", "duration_sec", "notes",
	}
}

// TableIIGroups maps each published Table II row to its fields in this
// schema, for the E2 experiment.
func TableIIGroups() map[int][]string {
	return map[int][]string{
		1: {"phylum", "class", "order", "family", "genus", "species", "gender", "num_individuals"},
		2: {"collect_time", "collect_date", "country", "state", "city", "locality",
			"habitat", "micro_habitat", "air_temp_c", "atmosphere"},
		3: {"recording_device", "microphone_model", "sound_file_format", "frequency_khz"},
	}
}

// Schema is the storage schema of the collection table.
var Schema = storage.MustSchema("fnjv_records",
	storage.Column{Name: "id", Kind: storage.KindString},
	storage.Column{Name: "phylum", Kind: storage.KindString, Nullable: true},
	storage.Column{Name: "class", Kind: storage.KindString, Nullable: true},
	storage.Column{Name: "order", Kind: storage.KindString, Nullable: true},
	storage.Column{Name: "family", Kind: storage.KindString, Nullable: true},
	storage.Column{Name: "genus", Kind: storage.KindString, Nullable: true},
	storage.Column{Name: "species", Kind: storage.KindString, Nullable: true},
	storage.Column{Name: "gender", Kind: storage.KindString, Nullable: true},
	storage.Column{Name: "num_individuals", Kind: storage.KindInt, Nullable: true},
	storage.Column{Name: "collect_date", Kind: storage.KindTime, Nullable: true},
	storage.Column{Name: "collect_time", Kind: storage.KindString, Nullable: true},
	storage.Column{Name: "country", Kind: storage.KindString, Nullable: true},
	storage.Column{Name: "state", Kind: storage.KindString, Nullable: true},
	storage.Column{Name: "city", Kind: storage.KindString, Nullable: true},
	storage.Column{Name: "locality", Kind: storage.KindString, Nullable: true},
	storage.Column{Name: "habitat", Kind: storage.KindString, Nullable: true},
	storage.Column{Name: "micro_habitat", Kind: storage.KindString, Nullable: true},
	storage.Column{Name: "air_temp_c", Kind: storage.KindFloat, Nullable: true},
	storage.Column{Name: "humidity_pct", Kind: storage.KindFloat, Nullable: true},
	storage.Column{Name: "atmosphere", Kind: storage.KindString, Nullable: true},
	storage.Column{Name: "latitude", Kind: storage.KindFloat, Nullable: true},
	storage.Column{Name: "longitude", Kind: storage.KindFloat, Nullable: true},
	storage.Column{Name: "recording_device", Kind: storage.KindString, Nullable: true},
	storage.Column{Name: "microphone_model", Kind: storage.KindString, Nullable: true},
	storage.Column{Name: "sound_file_format", Kind: storage.KindString, Nullable: true},
	storage.Column{Name: "frequency_khz", Kind: storage.KindFloat, Nullable: true},
	storage.Column{Name: "recordist", Kind: storage.KindString, Nullable: true},
	storage.Column{Name: "duration_sec", Kind: storage.KindInt, Nullable: true},
	storage.Column{Name: "notes", Kind: storage.KindString, Nullable: true},
)

func optF(p *float64) storage.Value {
	if p == nil {
		return storage.Null()
	}
	return storage.F(*p)
}

func optS(s string) storage.Value {
	if s == "" {
		return storage.Null()
	}
	return storage.S(s)
}

// ToRow converts a record to its storage row.
func ToRow(r *Record) storage.Row {
	var date storage.Value = storage.Null()
	if !r.CollectDate.IsZero() {
		date = storage.T(r.CollectDate)
	}
	return storage.Row{
		storage.S(r.ID),
		optS(r.Phylum), optS(r.Class), optS(r.Order), optS(r.Family),
		optS(r.Genus), optS(r.Species), optS(r.Gender), storage.I(int64(r.NumIndividuals)),
		date, optS(r.CollectTime),
		optS(r.Country), optS(r.State), optS(r.City), optS(r.Locality),
		optS(r.Habitat), optS(r.MicroHabitat),
		optF(r.AirTempC), optF(r.HumidityPct), optS(r.Atmosphere),
		optF(r.Latitude), optF(r.Longitude),
		optS(r.RecordingDevice), optS(r.MicrophoneModel), optS(r.SoundFileFormat),
		storage.F(r.FrequencyKHz),
		optS(r.Recordist), storage.I(int64(r.DurationSec)), optS(r.Notes),
	}
}

// checkArity fails a row that does not hold one value per schema column.
func checkArity(row storage.Row) error {
	if len(row) != len(Schema.Columns) {
		return fmt.Errorf("fnjv: row has %d values, want %d", len(row), len(Schema.Columns))
	}
	return nil
}

// FromRow converts a storage row back to a record.
func FromRow(row storage.Row) (*Record, error) {
	if err := checkArity(row); err != nil {
		return nil, err
	}
	get := func(name string) storage.Value { return row.Get(Schema, name) }
	fptr := func(name string) *float64 {
		v := get(name)
		if v.IsNull() {
			return nil
		}
		f := v.Float()
		return &f
	}
	r := &Record{
		ID:              get("id").Str(),
		Phylum:          get("phylum").Str(),
		Class:           get("class").Str(),
		Order:           get("order").Str(),
		Family:          get("family").Str(),
		Genus:           get("genus").Str(),
		Species:         get("species").Str(),
		Gender:          get("gender").Str(),
		NumIndividuals:  int(get("num_individuals").Int()),
		CollectTime:     get("collect_time").Str(),
		Country:         get("country").Str(),
		State:           get("state").Str(),
		City:            get("city").Str(),
		Locality:        get("locality").Str(),
		Habitat:         get("habitat").Str(),
		MicroHabitat:    get("micro_habitat").Str(),
		AirTempC:        fptr("air_temp_c"),
		HumidityPct:     fptr("humidity_pct"),
		Atmosphere:      get("atmosphere").Str(),
		Latitude:        fptr("latitude"),
		Longitude:       fptr("longitude"),
		RecordingDevice: get("recording_device").Str(),
		MicrophoneModel: get("microphone_model").Str(),
		SoundFileFormat: get("sound_file_format").Str(),
		FrequencyKHz:    get("frequency_khz").Float(),
		Recordist:       get("recordist").Str(),
		DurationSec:     int(get("duration_sec").Int()),
		Notes:           get("notes").Str(),
	}
	if v := get("collect_date"); !v.IsNull() {
		r.CollectDate = v.Time()
	}
	return r, nil
}
