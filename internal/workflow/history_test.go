package workflow

import (
	"strings"
	"testing"
)

// TestHistoryFoldRebuildsCompleteIterations pins the fold rule for a
// completion that stores no outputs: they are rebuilt from the element
// traces, per port in index order, only when each planned index appears
// exactly once and every element has the same ports; otherwise they stay
// nil. A completion that stores its outputs keeps them.
func TestHistoryFoldRebuildsCompleteIterations(t *testing.T) {
	sched := func(n int) HistoryEvent {
		return HistoryEvent{Type: HistoryActivityScheduled, Activity: "A", Elements: n}
	}
	el := func(i int, outputs ...string) HistoryEvent { // outputs as port=value
		m := map[string]Data{}
		for _, kv := range outputs {
			port, v, _ := strings.Cut(kv, "=")
			m[port] = Scalar(v)
		}
		return HistoryEvent{Type: HistoryIterationElement, Activity: "A", Element: i, Outputs: m}
	}
	done := HistoryEvent{Type: HistoryActivityCompleted, Activity: "A"}
	stored := HistoryEvent{Type: HistoryActivityCompleted, Activity: "A", Outputs: map[string]Data{"y": Scalar("stored")}}
	cases := []struct {
		name string
		evs  []HistoryEvent
		want string // renderData of the folded outputs; "" wants nil
	}{
		{"index order, not arrival order", []HistoryEvent{sched(3), el(2, "y=c"), el(0, "y=a"), el(1, "y=b"), done}, "y=[a, b, c]"},
		{"two ports", []HistoryEvent{sched(2), el(1, "y=b", "z=2"), el(0, "y=a", "z=1"), done}, "y=[a, b] z=[1, 2]"},
		{"an index missing", []HistoryEvent{sched(3), el(0, "y=a"), el(2, "y=c"), done}, ""},
		{"an index twice", []HistoryEvent{sched(2), el(0, "y=a"), el(0, "y=a"), done}, ""},
		{"an index out of range", []HistoryEvent{sched(2), el(0, "y=a"), el(2, "y=c"), done}, ""},
		{"a port missing", []HistoryEvent{sched(2), el(0, "y=a", "z=1"), el(1, "y=b"), done}, ""},
		{"a different port", []HistoryEvent{sched(2), el(0, "y=a"), el(1, "z=b"), done}, ""},
		{"zero elements", []HistoryEvent{sched(0), done}, ""},
		{"a single call", []HistoryEvent{sched(-1), done}, ""},
		{"stored outputs kept", []HistoryEvent{sched(1), el(0, "y=a"), stored}, "y=stored"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var f HistoryFold
			var fa *ActivityFold
			for _, ev := range tc.evs {
				fa = f.Apply(ev)
			}
			if got := renderData(fa.Outputs); got != tc.want || (tc.want == "") != (fa.Outputs == nil) {
				t.Fatalf("folded outputs %q (nil: %v), want %q", got, fa.Outputs == nil, tc.want)
			}
		})
	}
}
