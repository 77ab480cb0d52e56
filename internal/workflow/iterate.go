package workflow

import "fmt"

// Implicit iteration — the Taverna dot-product semantics the detection
// workflow leans on: checking 1 929 species names is ONE processor whose
// scalar input port receives a depth-1 list, so the engine schedules one task
// per element. The contract that keeps OPM provenance byte-identical at every
// worker count:
//
//   1. element i's outputs land at index i of every collected output list;
//   2. the element traces are complete and index-ordered;
//   3. the first (lowest-index) element failure cancels the remaining
//      elements and is reported as "iteration %d: <cause>" with
//      Iterations == index+1.

// iterationShape decides whether p's bound inputs drive implicit iteration
// and, if so, over how many elements: any input whose actual depth exceeds
// the declared port depth by one iterates, all iterated inputs must agree on
// length, and anything else is a shape error.
func iterationShape(p *Processor, inputs map[string]Data) (bool, int, error) {
	iterating := false
	n := -1
	for _, port := range p.Inputs {
		d := inputs[port.Name]
		switch d.Depth() {
		case port.Depth:
			// exact match: broadcast if others iterate
		case port.Depth + 1:
			iterating = true
			if n == -1 {
				n = len(d.Items())
			} else if n != len(d.Items()) {
				return false, 0, fmt.Errorf("iteration length mismatch on port %q: %d vs %d", port.Name, len(d.Items()), n)
			}
		default:
			return false, 0, fmt.Errorf("port %q expects depth %d, got depth %d", port.Name, port.Depth, d.Depth())
		}
	}
	return iterating, n, nil
}

// elementSpanName names the span of one implicit-iteration element.
func elementSpanName(p *Processor, i int) string {
	return fmt.Sprintf("element:%s[%d]", p.Name, i)
}

// elementInputs binds the i-th element of every iterated input, broadcasting
// the rest.
func elementInputs(p *Processor, inputs map[string]Data, i int) map[string]Data {
	callIn := make(map[string]Data, len(p.Inputs))
	for _, port := range p.Inputs {
		d := inputs[port.Name]
		if d.Depth() == port.Depth+1 {
			callIn[port.Name] = d.Items()[i]
		} else {
			callIn[port.Name] = d
		}
	}
	return callIn
}

// collectOutputs turns the per-port element slices into list data.
func collectOutputs(collected map[string][]Data) map[string]Data {
	outputs := make(map[string]Data, len(collected))
	for name, items := range collected {
		outputs[name] = List(items...)
	}
	return outputs
}
