package workflow

import "strings"

// Nested workflows, as in Taverna: a processor whose implementation is
// another dataflow, bound in the Registry under a service name that starts
// with NestedPrefix. The decider records a sub-workflow event when it first
// schedules such a processor.

// NestedPrefix marks registry names that resolve to nested definitions.
const NestedPrefix = "nested:"

// IsNestedService reports whether a service name denotes a nested workflow.
func IsNestedService(service string) bool { return strings.HasPrefix(service, NestedPrefix) }
