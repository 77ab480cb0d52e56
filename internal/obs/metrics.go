package obs

import (
	"sort"
	"time"
)

// Runtime telemetry as observations. The engine's concurrency counters
// (in-flight iteration elements, peak parallelism), the caching
// resolver's coalesced-lookup counts, and the provenance batch writer's
// counters (queue depth, batch sizes, flush latency — see
// provenance.WriterMetrics.Counters) are assertions about a system entity
// observed at a point in time — exactly the §II.C observation shape — so
// they are stored through the same uniform model as any observation, with no
// second storage path.

// RuntimeProtocol marks observations produced by system self-monitoring.
const RuntimeProtocol = "runtime self-monitoring"

// FromRuntimeMetrics maps a set of named counter readings (e.g.
// "engine.elements_dispatched", "resolver.coalesced_lookups") onto one
// Observation of the given subsystem entity. Measurements are emitted in
// sorted characteristic order so serialized observations are deterministic.
func FromRuntimeMetrics(subsystem string, at time.Time, counters map[string]float64) Observation {
	o := Observation{
		ID: "obs:runtime:" + subsystem + ":" + at.UTC().Format(time.RFC3339Nano),
		Entity: Entity{
			ID:    "subsystem:" + subsystem,
			Type:  "subsystem",
			Label: subsystem,
		},
		At:       at,
		Protocol: RuntimeProtocol,
	}
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		o.Measurements = append(o.Measurements, Float(name, counters[name], "count"))
	}
	return o
}
