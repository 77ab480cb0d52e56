package workflow

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// reflectiveEvent is HistoryEvent with every Data turned into the plain
// value it encodes as (a string, or a list of them), so encoding/json's
// reflection produces the whole reference encoding, Data included.
type reflectiveEvent struct {
	Seq          int               `json:"seq"`
	Type         HistoryEventType  `json:"type"`
	Time         time.Time         `json:"time"`
	RunID        string            `json:"run_id"`
	WorkflowID   string            `json:"workflow_id,omitempty"`
	WorkflowName string            `json:"workflow_name,omitempty"`
	Activity     string            `json:"activity,omitempty"`
	Service      string            `json:"service,omitempty"`
	Worker       string            `json:"worker,omitempty"`
	Element      int               `json:"element,omitempty"`
	Elements     int               `json:"elements,omitempty"`
	Iterations   int               `json:"iterations,omitempty"`
	Attempt      int               `json:"attempt,omitempty"`
	Inputs       map[string]any    `json:"inputs,omitempty"`
	Outputs      map[string]any    `json:"outputs,omitempty"`
	Batch        []reflectiveTrace `json:"batch,omitempty"`
	Annotations  []Annotation      `json:"annotations,omitempty"`
	Duration     time.Duration     `json:"duration,omitempty"`
	Status       string            `json:"status,omitempty"`
	Err          string            `json:"error,omitempty"`
}

// reflectiveTrace is ElementTrace with its Data made plain.
type reflectiveTrace struct {
	Index   int            `json:"element"`
	Inputs  map[string]any `json:"inputs,omitempty"`
	Outputs map[string]any `json:"outputs,omitempty"`
}

func plainData(d Data) any {
	if !d.isList {
		return d.scalar
	}
	out := []any{}
	for _, item := range d.list {
		out = append(out, plainData(item))
	}
	return out
}

func plainPorts(m map[string]Data) map[string]any {
	if m == nil {
		return nil
	}
	out := make(map[string]any, len(m))
	for k, v := range m {
		out[k] = plainData(v)
	}
	return out
}

func reflective(ev *HistoryEvent) reflectiveEvent {
	var batch []reflectiveTrace
	for _, el := range ev.Batch {
		batch = append(batch, reflectiveTrace{Index: el.Index, Inputs: plainPorts(el.Inputs), Outputs: plainPorts(el.Outputs)})
	}
	return reflectiveEvent{
		Seq: ev.Seq, Type: ev.Type, Time: ev.Time, RunID: ev.RunID,
		WorkflowID: ev.WorkflowID, WorkflowName: ev.WorkflowName,
		Activity: ev.Activity, Service: ev.Service, Worker: ev.Worker,
		Element: ev.Element, Elements: ev.Elements, Iterations: ev.Iterations, Attempt: ev.Attempt,
		Inputs: plainPorts(ev.Inputs), Outputs: plainPorts(ev.Outputs), Batch: batch, Annotations: ev.Annotations,
		Duration: ev.Duration, Status: ev.Status, Err: ev.Err,
	}
}

// TestReflectiveEventMirrorsHistoryEvent keeps the reference honest: a field
// added to HistoryEvent or ElementTrace must be added to AppendJSON and to
// the mirror.
func TestReflectiveEventMirrorsHistoryEvent(t *testing.T) {
	for _, pair := range [][2]reflect.Type{
		{reflect.TypeOf(HistoryEvent{}), reflect.TypeOf(reflectiveEvent{})},
		{reflect.TypeOf(ElementTrace{}), reflect.TypeOf(reflectiveTrace{})},
	} {
		a, b := pair[0], pair[1]
		if a.NumField() != b.NumField() {
			t.Fatalf("%s has %d fields, the reference mirror %d", a.Name(), a.NumField(), b.NumField())
		}
		for i := range a.NumField() {
			if fa, fb := a.Field(i), b.Field(i); fa.Name != fb.Name || fa.Tag != fb.Tag {
				t.Errorf("%s field %d: %s `%s` vs mirror %s `%s`", a.Name(), i, fa.Name, fa.Tag, fb.Name, fb.Tag)
			}
		}
	}
}

// checkHistoryJSON holds AppendJSON to json.Marshal of the event and to
// json.Marshal of its fully reflective mirror: the same bytes, appended after
// what dst held, or the same error with dst untouched.
func checkHistoryJSON(t *testing.T, ev *HistoryEvent) {
	t.Helper()
	prefix := []byte("prefix")
	got, gotErr := ev.AppendJSON(prefix[:len(prefix):len(prefix)])
	want, wantErr := json.Marshal(ev)
	ref, refErr := json.Marshal(reflective(ev))
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	if errText(gotErr) != errText(wantErr) || errText(wantErr) != errText(refErr) {
		t.Fatalf("errors differ for %+v:\nAppendJSON   %v\njson.Marshal %v\nreflective   %v", ev, gotErr, wantErr, refErr)
	}
	if wantErr != nil {
		if !bytes.Equal(got, prefix) {
			t.Fatalf("failed AppendJSON changed dst to %q", got)
		}
		return
	}
	if !bytes.Equal(got, append(prefix, want...)) || !bytes.Equal(want, ref) {
		t.Fatalf("encodings differ for %+v:\nAppendJSON   %s\njson.Marshal %s\nreflective   %s", ev, got[len(prefix):], want, ref)
	}
}

// shapeReader builds history events from fuzz bytes: raw strings (any
// bytes, so invalid UTF-8 too), nested lists, nil and empty maps, element
// batches, times of any year and zone offset.
type shapeReader struct{ b []byte }

func (r *shapeReader) next() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *shapeReader) num() int { return int(int8(r.next())) }

func (r *shapeReader) str() string {
	n := min(int(r.next()%12), len(r.b))
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *shapeReader) data(depth int) Data {
	switch c := r.next() % 4; {
	case c == 0 || depth > 3:
		return Scalar(r.str())
	case c == 1:
		return Data{isList: true} // a nil list
	default:
		items := make([]Data, r.next()%4)
		for i := range items {
			items[i] = r.data(depth + 1)
		}
		return List(items...)
	}
}

func (r *shapeReader) ports() map[string]Data {
	switch r.next() % 3 {
	case 0:
		return nil
	case 1:
		return map[string]Data{}
	}
	m := map[string]Data{}
	for n := 1 + r.next()%4; n > 0; n-- {
		m[r.str()] = r.data(0)
	}
	return m
}

func (r *shapeReader) time() time.Time {
	year := int(int16(uint16(r.next())<<8 | uint16(r.next())))
	var loc *time.Location
	switch r.next() % 3 {
	case 0:
		loc = time.UTC
	case 1:
		loc = time.FixedZone("", r.num()*15*60) // up to ±31h45m
	default:
		loc = time.FixedZone("", r.num()*997) // odd seconds
	}
	return time.Date(year, time.Month(r.next()%12+1), int(r.next()%28+1),
		int(r.next()%24), int(r.next()%60), int(r.next()%60), int(r.next())*3_906_251, loc)
}

func (r *shapeReader) event() HistoryEvent {
	ev := HistoryEvent{
		Seq: r.num(), Type: HistoryEventType(r.str()), Time: r.time(), RunID: r.str(),
		WorkflowID: r.str(), WorkflowName: r.str(), Activity: r.str(), Service: r.str(), Worker: r.str(),
		Element: r.num(), Elements: r.num(), Iterations: r.num(), Attempt: r.num(),
		Inputs: r.ports(), Outputs: r.ports(),
	}
	switch n := r.next() % 4; n {
	case 0:
	case 1:
		ev.Annotations = []Annotation{}
	default:
		for ; n > 1; n-- {
			ev.Annotations = append(ev.Annotations, Annotation{Key: r.str(), Value: r.str(), Author: r.str(), Date: r.time()})
		}
	}
	ev.Duration = time.Duration(r.num()) * time.Millisecond
	ev.Status, ev.Err = r.str(), r.str()
	switch n := r.next() % 4; n {
	case 0:
	case 1:
		ev.Batch = []ElementTrace{}
	default:
		for ; n > 1; n-- {
			ev.Batch = append(ev.Batch, ElementTrace{Index: r.num(), Inputs: r.ports(), Outputs: r.ports()})
		}
	}
	return ev
}

// TestHistoryJSONEdgeCases: the cases the encoder must get byte-exact by
// construction, spelled out.
func TestHistoryJSONEdgeCases(t *testing.T) {
	when := time.Date(2014, 3, 31, 12, 0, 0, 123456789, time.FixedZone("BRT", -3*3600))
	nested := List(Scalar("a"), List(), Data{isList: true}, List(List(Scalar("<deep>"))))
	odd := "q\"b\\s/\b\f\n\r\t\x00\x1f\x7f <>& \u2028\u2029 \xff\xc3( é 🐸"
	for _, ev := range []HistoryEvent{
		{},
		{Seq: -3, Time: when},
		{Seq: 7, Type: HistoryActivityCompleted, Time: when, RunID: "run-1", Activity: "Catalog_of_life",
			Iterations: 3, Outputs: map[string]Data{"result": nested, "b": Scalar(odd), "a": Scalar("")},
			Inputs: map[string]Data{}, Annotations: []Annotation{}},
		{Type: HistoryEventType(odd), RunID: odd, WorkflowID: odd, Status: odd, Err: odd,
			Inputs: map[string]Data{odd: Scalar(odd), "\xfe": List(Scalar(odd))}},
		{Annotations: []Annotation{{Key: "Q(reputation)", Value: "1", Author: "expert", Date: when}, {}}},
		{Duration: 1500 * time.Millisecond, Element: -1, Elements: -1, Attempt: 2},
		{Time: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
		{Time: time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)},
		{Time: when, Annotations: []Annotation{{Date: time.Date(12000, 1, 1, 0, 0, 0, 0, time.UTC)}}},
		{Time: time.Date(2000, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600))},
		{Time: time.Date(2000, 1, 1, 0, 0, 0, 0, time.FixedZone("", -(23*3600+59*60+59)))},
		{Type: HistoryIterationBatch, Time: when, RunID: "run-1", Activity: "Catalog_of_life", Worker: "w1",
			Batch: []ElementTrace{
				{Index: 0, Inputs: map[string]Data{"name": Scalar("Hyla faber")}, Outputs: map[string]Data{"status": Scalar(odd)}},
				{Index: -1},
				{Index: 7, Inputs: map[string]Data{}, Outputs: map[string]Data{"\xfe": nested}},
			}},
		{Batch: []ElementTrace{}},
	} {
		checkHistoryJSON(t, &ev)
	}
}

// FuzzHistoryJSON pins AppendJSON — the history row payload encoder — to
// json.Marshal byte for byte, errors included. Each input is a history the
// way the repository stores it (seeded from the history fuzzers' corpus)
// plus the shape bytes of one more event, built raw so it can hold what no
// JSON decode yields: invalid UTF-8, nil lists, times outside RFC 3339.
func FuzzHistoryJSON(f *testing.F) {
	shapes := [][]byte{
		nil,
		[]byte("\x05\x05<&>\"\\\x07\x00\x01\x0f\x0f\xe2\x80\xa8\x01\x02\x03"),
		[]byte("\x01\x03\xff\xfe\xc3\x80\x27\x10\x01\x7f\x02\x02\x03\x03\x02\x04\x00\x01a\x01\x02\x03\x02\x01\x01\x00"),
		[]byte("\x00\x00\x80\x00\x01\x60\x05\x05\x05\x05\x05\x05\x05\x05\x05\x05\x05\x05\x05\x05"),
		[]byte("\x02\x04\xe2\x80\xa9x\x27\x0f\x02\x81\x0b\x1b\x17\x3b\x3b\xff\x03\x02\x02\x03\x03\x02\x02\x01"),
	}
	// Long enough to reach the batch: element traces with nil and empty port
	// maps, nested lists and invalid UTF-8.
	shapes = append(shapes,
		bytes.Repeat([]byte("\x02\xff\xc3a"), 40),
		bytes.Repeat([]byte("\x07\x02\xff\x01\xc3"), 40))
	for i, seed := range resumeHistorySeeds(f) {
		f.Add(seed, shapes[i%len(shapes)])
	}
	for _, hostile := range []string{
		`[{"seq":0,"type":"run-started"},{"seq":1,"type":"run-finished","status":"completed","outputs":{"out":"X"}},{"seq":2,"type":"activity-scheduled","activity":"A"},{"seq":3,"type":"activity-completed","activity":"A","outputs":{"y":"X"}}]`,
		`[{"seq":-5,"type":"run-started"},{"seq":-5,"type":"activity-completed","activity":"B","iterations":1,"outputs":{"y":[["deep"]]}},{"seq":-5,"type":"activity-failed","activity":"A"},{"seq":-5,"type":"activity-completed","activity":"B","outputs":{"y":"again"}}]`,
		`[{"seq":1,"type":"activity-completed","activity":"A","outputs":{}},{"seq":2,"type":"run-finished","status":"failed","error":"x"},{"seq":3,"type":"run-started"}]`,
		`[{"seq":1,"time":"0001-01-01T00:00:00Z","annotations":[{"Key":"<k>","Date":"9999-12-31T23:59:59.999999999+23:59"}],"inputs":{"\u2028":[[],["&"]]}}]`,
	} {
		for _, shape := range shapes {
			f.Add([]byte(hostile), shape)
		}
	}

	f.Fuzz(func(t *testing.T, history, shape []byte) {
		var evs []HistoryEvent
		if json.Unmarshal(history, &evs) == nil {
			for i := range evs {
				checkHistoryJSON(t, &evs[i])
			}
		}
		ev := (&shapeReader{b: shape}).event()
		checkHistoryJSON(t, &ev)
	})
}
