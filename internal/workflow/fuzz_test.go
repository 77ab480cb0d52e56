package workflow

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

// FuzzResumeHistory fuzzes the one thing resume trusts: the persisted history
// prefix. Arbitrary bytes are decoded the way the provenance repository
// decodes stored history rows (the HistoryEvent JSON codec) and handed to
// EventEngine.Resume over the linear test pipeline. Whatever the prefix claims
// — out-of-range elements, events past run-finished, unknown activities,
// duplicate or negative sequence numbers, outputs of the wrong shape — Resume
// must return a result or an error; it may never panic, never sit in the
// orchestration loop waiting for a task nobody was given, and never append
// events out of sequence.
func FuzzResumeHistory(f *testing.F) {
	def, inputs := fuzzPipeline()
	for _, seed := range resumeHistorySeeds(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var history []HistoryEvent
		if err := json.Unmarshal(data, &history); err != nil {
			return
		}
		eng := NewEventEngine(upperReg())
		eng.Workers = 2
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		type outcome struct {
			res *RunResult
			err error
		}
		done := make(chan outcome, 1)
		appended, listener := recordHistory()
		go func() {
			res, err := eng.Resume(ctx, def, inputs, "run-fuzz", history, listener)
			done <- outcome{res, err}
		}()
		select {
		case o := <-done:
			if o.res == nil && o.err == nil {
				t.Fatal("Resume returned neither a result nor an error")
			}
			// Whatever sequence numbers the prefix claims, what Resume appends
			// after it is one totally ordered stream.
			for i := 1; i < len(*appended); i++ {
				if (*appended)[i].Seq <= (*appended)[i-1].Seq {
					t.Fatalf("appended history out of order at %d: %+v", i, *appended)
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Resume blocked on history %s", data)
		}
	})
}

// fuzzPipeline is the linear test pipeline with a list on the depth-0 input,
// so both processors iterate and element events and partial iterations are
// part of every history it makes.
func fuzzPipeline() (*Definition, map[string]Data) {
	def := linearDef()
	def.Processors[0].Service = "upper"
	def.Processors[1].Service = "exclaim"
	return def, map[string]Data{"in": List(Scalar("a"), Scalar("b"), Scalar("c"))}
}

// resumeHistorySeeds is the seed corpus of the history fuzzers: a real run
// of fuzzPipeline cut at every event, plus hand-written prefixes no engine
// makes — out-of-range elements, events past run-finished, unknown
// activities, duplicate negative sequence numbers, outputs of the wrong
// shape, and iteration-batch events that repeat an index, name one out of
// range, repeat one an iteration-element holds, or belong to an activity
// never scheduled.
func resumeHistorySeeds(tb testing.TB) [][]byte {
	def, inputs := fuzzPipeline()
	evs, listener := recordHistory()
	if _, err := NewEventEngine(upperReg()).Resume(context.Background(), def, inputs, "", nil, listener); err != nil {
		tb.Fatal(err)
	}
	var seeds [][]byte
	for cut := 0; cut <= len(*evs); cut++ {
		blob, err := json.Marshal((*evs)[:cut])
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, blob)
	}
	return append(seeds,
		[]byte(`[{"seq":0,"type":"run-started"},{"seq":1,"type":"activity-scheduled","activity":"A","inputs":{"x":["a","b"]},"elements":2},{"seq":2,"type":"iteration-element","activity":"A","element":7,"outputs":{"y":"Z"}},{"seq":3,"type":"iteration-element","activity":"A","element":-3}]`),
		[]byte(`[{"seq":0,"type":"run-started"},{"seq":1,"type":"run-finished","status":"completed","outputs":{"out":"X"}},{"seq":2,"type":"activity-scheduled","activity":"A"}]`),
		[]byte(`[{"seq":0,"type":"activity-completed","activity":"nope","outputs":{"y":"X"}}]`),
		[]byte(`[{"seq":-5,"type":"run-started"},{"seq":-5,"type":"activity-completed","activity":"B","iterations":1,"outputs":{"y":[["deep"]]}},{"seq":-5,"type":"activity-failed","activity":"A"}]`),
		[]byte(`[{"seq":1,"type":"activity-completed","activity":"A","outputs":{}}]`),
		[]byte(`[{"seq":0,"type":"run-started"},{"seq":1,"type":"activity-scheduled","activity":"A","inputs":{"x":["a","b","c"]},"elements":3},{"seq":2,"type":"iteration-batch","activity":"A","batch":[{"element":1,"outputs":{"y":"B"}},{"element":1,"outputs":{"y":"Z"}}]}]`),
		[]byte(`[{"seq":0,"type":"run-started"},{"seq":1,"type":"activity-scheduled","activity":"A","inputs":{"x":["a","b","c"]},"elements":3},{"seq":2,"type":"iteration-batch","activity":"A","batch":[{"element":7,"outputs":{"y":"Z"}},{"element":-3},{"element":0,"outputs":{"y":"A"}}]}]`),
		[]byte(`[{"seq":0,"type":"run-started"},{"seq":1,"type":"activity-scheduled","activity":"A","inputs":{"x":["a","b","c"]},"elements":3},{"seq":2,"type":"iteration-element","activity":"A","element":0,"outputs":{"y":"A"}},{"seq":3,"type":"iteration-batch","activity":"A","batch":[{"element":0,"outputs":{"y":"Z"}},{"element":2,"outputs":{"y":"C"}}]}]`),
		[]byte(`[{"seq":0,"type":"run-started"},{"seq":1,"type":"iteration-batch","activity":"B","batch":[{"element":0,"outputs":{"y":"X"}}]},{"seq":2,"type":"activity-completed","activity":"B","outputs":{}}]`))
}
