// Package workflow implements the scientific-workflow substrate of the
// architecture: a dataflow model in the spirit of Taverna (processors with
// typed ports connected by data links), structural validation, a parallel
// execution engine that emits provenance events, per-element implicit
// iteration over lists, free-form annotations (the vehicle for the Workflow
// Adapter's quality metadata), an XML serialization comparable to t2flow
// (Listing 1), and a versioned workflow repository.
package workflow

import (
	"fmt"
	"strings"
	"time"
)

// Data is a value flowing through the dataflow: either a scalar string or a
// list of Data (Taverna's string-centric data model). The zero Data is the
// empty scalar.
type Data struct {
	list   []Data
	scalar string
	isList bool
}

// Scalar builds a scalar datum.
func Scalar(s string) Data { return Data{scalar: s} }

// List builds a list datum (the elements are not copied).
func List(items ...Data) Data { return Data{list: items, isList: true} }

// String returns the scalar payload; for a list it renders the elements
// comma-separated in brackets.
func (d Data) String() string {
	if !d.isList {
		return d.scalar
	}
	parts := make([]string, len(d.list))
	for i, e := range d.list {
		parts[i] = e.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Items returns the list elements (nil for scalars).
func (d Data) Items() []Data { return d.list }

// Depth reports the nesting depth: 0 for a scalar, 1 for a list of scalars,
// etc. An empty list has depth 1.
func (d Data) Depth() int {
	depth := 0
	for d.isList {
		depth++
		if len(d.list) == 0 {
			break
		}
		d = d.list[0]
	}
	return depth
}

// Port is a named input or output with a declared nesting depth
// (0 = scalar, 1 = list of scalars, ...).
type Port struct {
	Name  string
	Depth int
}

// Annotation is one key/value assertion attached to a workflow or processor
// — Taverna annotation beans. The Workflow Adapter writes quality
// annotations (Q(reputation), Q(availability)) through this mechanism.
type Annotation struct {
	Key    string
	Value  string
	Author string
	Date   time.Time
}

// QualityPrefix marks annotation keys that carry quality metadata, matching
// the paper's Listing 1 syntax "Q(reputation): 1".
const QualityPrefix = "Q("

// QualityKey builds the annotation key for a quality dimension, e.g.
// QualityKey("reputation") == "Q(reputation)".
func QualityKey(dimension string) string { return QualityPrefix + dimension + ")" }

// QualityDimension extracts the dimension from a quality annotation key, or
// "" if the key is not a quality annotation.
func QualityDimension(key string) string {
	if strings.HasPrefix(key, QualityPrefix) && strings.HasSuffix(key, ")") {
		return key[len(QualityPrefix) : len(key)-1]
	}
	return ""
}

// Processor is one step of the dataflow, bound to a registered service.
type Processor struct {
	Name        string
	Service     string // registry key of the implementation
	Inputs      []Port
	Outputs     []Port
	Annotations []Annotation
	// Config carries static service parameters (e.g. authority URL).
	Config map[string]string
	// Retries is the number of extra attempts per invocation when the
	// service errors (Taverna-style per-processor retry; 0 = fail fast).
	Retries int
	// RetryBase, when positive, enables exponential backoff with full
	// jitter between retry attempts: the k-th retry sleeps a uniform draw
	// from (0, min(RetryBase·2^(k-1), RetryCap)]. Zero keeps the historical
	// immediate retry.
	RetryBase time.Duration
	// RetryCap bounds the backoff growth (default 30s when RetryBase > 0).
	RetryCap time.Duration
}

// InputPort returns the input port with the given name.
func (p *Processor) InputPort(name string) (Port, bool) {
	for _, q := range p.Inputs {
		if q.Name == name {
			return q, true
		}
	}
	return Port{}, false
}

// OutputPort returns the output port with the given name.
func (p *Processor) OutputPort(name string) (Port, bool) {
	for _, q := range p.Outputs {
		if q.Name == name {
			return q, true
		}
	}
	return Port{}, false
}

// Endpoint names one side of a data link. Processor=="" refers to the
// workflow boundary (a workflow input or output port).
type Endpoint struct {
	Processor string
	Port      string
}

// String renders "processor.port" or ":port" for the boundary.
func (e Endpoint) String() string {
	if e.Processor == "" {
		return ":" + e.Port
	}
	return e.Processor + "." + e.Port
}

// Link is one data dependency: Source's datum flows to Target.
type Link struct {
	Source Endpoint
	Target Endpoint
}

// Definition is a complete workflow specification.
type Definition struct {
	ID          string
	Name        string
	Description string
	Version     int
	Inputs      []Port
	Outputs     []Port
	Processors  []*Processor
	Links       []Link
	Annotations []Annotation
}

// Processor returns the named processor.
func (d *Definition) Processor(name string) (*Processor, bool) {
	for _, p := range d.Processors {
		if p.Name == name {
			return p, true
		}
	}
	return nil, false
}

// AnnotateProcessor appends an annotation to the named processor.
func (d *Definition) AnnotateProcessor(proc, key, value, author string, when time.Time) error {
	p, ok := d.Processor(proc)
	if !ok {
		return fmt.Errorf("workflow: no processor %q in %q", proc, d.Name)
	}
	p.Annotations = append(p.Annotations, Annotation{Key: key, Value: value, Author: author, Date: when})
	return nil
}

// QualityAnnotations collects the quality annotations (Q(...) keys) of an
// annotation list as a dimension→value map.
func QualityAnnotations(anns []Annotation) map[string]string {
	out := map[string]string{}
	for _, a := range anns {
		if dim := QualityDimension(a.Key); dim != "" {
			out[dim] = a.Value
		}
	}
	return out
}

// Clone returns a deep copy of the definition, so adapters can instrument a
// workflow without mutating the repository's copy.
func (d *Definition) Clone() *Definition {
	out := &Definition{
		ID:          d.ID,
		Name:        d.Name,
		Description: d.Description,
		Version:     d.Version,
		Inputs:      append([]Port(nil), d.Inputs...),
		Outputs:     append([]Port(nil), d.Outputs...),
		Links:       append([]Link(nil), d.Links...),
		Annotations: append([]Annotation(nil), d.Annotations...),
	}
	for _, p := range d.Processors {
		cp := &Processor{
			Name:        p.Name,
			Service:     p.Service,
			Inputs:      append([]Port(nil), p.Inputs...),
			Outputs:     append([]Port(nil), p.Outputs...),
			Annotations: append([]Annotation(nil), p.Annotations...),
			Retries:     p.Retries,
			RetryBase:   p.RetryBase,
			RetryCap:    p.RetryCap,
		}
		if p.Config != nil {
			cp.Config = make(map[string]string, len(p.Config))
			for k, v := range p.Config {
				cp.Config[k] = v
			}
		}
		out.Processors = append(out.Processors, cp)
	}
	return out
}
