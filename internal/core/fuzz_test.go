package core

import (
	"encoding/json"
	"testing"
)

// FuzzRunOptions fuzzes the admission-row options decoder, which reads bytes
// a store kept across versions: arbitrary bytes never panic decodeRunOptions;
// whatever decodes survives encodeRunOptions and back field for field; and
// the same row as an earlier version wrote it, with the dropped lease_ttl_ms
// and measured_availability beside the other keys, decodes to the same
// options.
func FuzzRunOptions(f *testing.F) {
	f.Add(encodeRunOptions(RunOptions{
		Reputation: "0.8", Availability: "0.9", Author: "expert",
		SkipLedger: true, Parallel: 4, CrashAfterDeltas: 7, Untraced: true,
	}))
	f.Add(`{"parallel":2,"crash_after_deltas":3,"lease_ttl_ms":250}`)
	f.Add(`{"worker_kills":1,"skip_ledger":true}`)
	f.Add(`{"author":"expert","measured_availability":0.75}`)
	f.Add(`{"parallel":"4"}`)
	f.Add(`null`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, blob string) {
		opts := decodeRunOptions(blob)
		encoded := encodeRunOptions(opts)
		if again := decodeRunOptions(encoded); again != opts {
			t.Fatalf("round trip of %q:\n got %+v\nwant %+v", encoded, again, opts)
		}
		var row map[string]json.RawMessage
		if err := json.Unmarshal([]byte(encoded), &row); err != nil {
			t.Fatalf("encodeRunOptions wrote %q: %v", encoded, err)
		}
		row["lease_ttl_ms"] = json.RawMessage("2000")
		row["measured_availability"] = json.RawMessage("-1")
		parentEra, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		if got := decodeRunOptions(string(parentEra)); got != opts {
			t.Fatalf("parent-era row %s:\n got %+v\nwant %+v", parentEra, got, opts)
		}
	})
}
