package workflow

import (
	"context"
	"fmt"
	"strings"
)

// Nested workflows, as in Taverna: a processor whose implementation is
// another dataflow. The sub-workflow's workflow inputs/outputs become the
// processor's ports, and the engine recurses. Nesting composes with implicit
// iteration — a nested processor with scalar ports iterates element-wise
// over list inputs like any service.
//
// Registration model: nested definitions are registered on the Registry
// under a service name via RegisterNested, so specifications stay plain
// (processors still reference services by name) and XML round-trips without
// a new schema.

// NestedPrefix marks registry names that resolve to nested definitions.
const NestedPrefix = "nested:"

// RegisterNested binds def as a callable service named NestedPrefix+name.
// The definition is validated and cloned at registration time. The returned
// processor template carries ports matching the sub-workflow's boundary, for
// convenience when building the outer definition.
func RegisterNested(reg *Registry, name string, def *Definition) (*Processor, error) {
	if err := Validate(def); err != nil {
		return nil, fmt.Errorf("workflow: nested %q: %w", name, err)
	}
	cp := def.Clone()
	service := NestedPrefix + name
	eng := NewEventEngine(reg)
	reg.Register(service, func(ctx context.Context, call Call) (map[string]Data, error) {
		res, err := eng.Run(ctx, cp, call.Inputs)
		if err != nil {
			return nil, fmt.Errorf("nested workflow %q: %w", name, err)
		}
		return res.Outputs, nil
	})
	proc := &Processor{
		Name:    name,
		Service: service,
		Inputs:  append([]Port(nil), cp.Inputs...),
		Outputs: append([]Port(nil), cp.Outputs...),
	}
	return proc, nil
}

// IsNestedService reports whether a service name denotes a nested workflow.
func IsNestedService(service string) bool { return strings.HasPrefix(service, NestedPrefix) }
