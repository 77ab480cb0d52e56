package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the internal/ declarations that no program reaches and
// that stay anyway, keyed pkg.Name or pkg.Type.Method, each with its reason.
// An allowlisted interface method counts as called, so the methods it
// dispatches to stay with it.
var reachAllowlist = map[string]string{
	"opm.UnmarshalXML": "decodes the OPM XML a preserved package carries; the encoder's tests use it as their oracle",
	"audio.ReadWAV":    "decodes the WAV a preserved package carries; FuzzReadWAV and the encoder's tests use it",

	// The benchmark module's tracing decorators (benchmark/trace.go) call
	// these through the interface, from methods only these calls would
	// reach; they go when the ledger reads its layers from the product.
	"provenance.Repo.Snapshot":      "the benchmark's tracedRepo.Snapshot calls it; keeps Repository's and ProvenanceRouter's identity Snapshot",
	"telemetry.TraceStore.Snapshot": "the benchmark's tracedTraces.Snapshot calls it; keeps SpanStore's and TraceRouter's identity Snapshot",
	"fnjv.Records.DistinctSpecies":  "the benchmark's tracedRecords.DistinctSpecies calls it; Store and RecordRouter reach their own directly",
}

// reflectDispatched are methods the standard library calls on any value,
// through an interface it never names in a signature (fmt, encoding/json,
// errors).
var reflectDispatched = []string{
	"String", "GoString", "Format", "Error", "Unwrap", "Is", "As",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText",
}

// TestInternalDeclarationsReachable is the ci guard against code no program
// runs. It type-checks the non-test files of both modules (this one and
// benchmark/) and walks every reference from each main and init: a generic
// instantiation counts as its origin. Dispatch is precise for module
// interfaces: a concrete method is reached through one only when reached code
// calls that interface method (a call or a method value; naming the interface
// or asserting `var _ I = (*T)(nil)` does not count) and converts a value of
// the method's type to an interface (assignment, argument, return, composite
// element, send or conversion) that the type implements. A standard-library
// interface — named in reached code, or in the signature of a standard-library
// function reached code calls — still makes every same-named method of a
// reached type reachable. Every top-level declaration, method or interface
// method (reached when called) under internal/ that the walk never reaches,
// and that reachAllowlist does not name, fails the test.
func TestInternalDeclarationsReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules")
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	l := &loader{
		fset:   token.NewFileSet(),
		listed: map[string]*listedPkg{},
		pkgs:   map[string]*types.Package{},
		files:  map[string][]*ast.File{},
		info:   newInfo(),
	}
	for _, dir := range []string{".", "benchmark"} {
		l.list(t, dir)
	}
	l.std = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		if p := l.listed[path]; p != nil && p.Export != "" {
			return os.Open(p.Export)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	var paths []string
	for path, p := range l.listed {
		if !p.Standard {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			t.Fatal(err)
		}
	}

	r := newReacher(l.info)
	var roots []ast.Node
	for _, path := range paths {
		roots = append(roots, r.add(l.pkgs[path], l.files[path])...)
	}
	r.run(roots...)
	// What an allowlisted declaration calls stays with it.
	allowed := map[string]bool{}
	for obj := range r.decls {
		if _, ok := reachAllowlist[declKey(obj)]; ok && !r.reached[obj] && internal(obj) {
			allowed[declKey(obj)] = true
			r.reach(obj)
		}
	}
	r.run()

	var unreached []string
	for obj, node := range r.decls {
		if r.reached[obj] || !internal(obj) {
			continue
		}
		pos := l.fset.Position(node.Pos())
		if rel, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = rel
		}
		unreached = append(unreached, fmt.Sprintf("%s:%d: %s", pos.Filename, pos.Line, declKey(obj)))
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s is reached by no program: delete it, or say on reachAllowlist why it stays", u)
	}
	for key := range reachAllowlist {
		if !allowed[key] {
			t.Errorf("reachAllowlist names %s, which is no unreached declaration", key)
		}
	}
}

// TestReachDispatchIsPrecise runs the walk over a small program: of two types
// with an interface's methods, one is converted to the interface and one
// method called through it; the other is only constructed and asserted.
// Exactly the called method of the converted type is reached.
func TestReachDispatchIsPrecise(t *testing.T) {
	const src = `package main

type I interface {
	A()
	B()
}

type T struct{}

func (*T) A() {}
func (*T) B() {}

type U struct{}

func (*U) A() {}
func (*U) B() {}

var _ I = (*U)(nil)

func main() {
	var i I = &T{}
	i.A()
	_ = &U{}
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "main.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := newInfo()
	pkg, err := new(types.Config).Check("repro/internal/selftest", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	r := newReacher(info)
	r.run(r.add(pkg, []*ast.File{f})...)
	var methods []string // reached concrete methods
	for obj := range r.decls {
		sig, _ := obj.Type().(*types.Signature)
		if r.reached[obj] && sig != nil && sig.Recv() != nil && !types.IsInterface(sig.Recv().Type()) {
			methods = append(methods, declKey(obj))
		}
	}
	sort.Strings(methods)
	if got := strings.Join(methods, " "); got != "main.T.A" {
		t.Errorf("reached methods %q, want exactly main.T.A", got)
	}
}

func newInfo() *types.Info {
	return &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
}

// listedPkg is the part of `go list -json` the walk reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// loader type-checks the module packages from source and imports the
// standard library from the export data `go list -export` built.
type loader struct {
	fset   *token.FileSet
	listed map[string]*listedPkg
	pkgs   map[string]*types.Package
	files  map[string][]*ast.File
	info   *types.Info
	std    types.Importer
}

func (l *loader) list(t *testing.T, dir string) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		p := new(listedPkg)
		if err := dec.Decode(p); err != nil {
			t.Fatal(err)
		}
		l.listed[p.ImportPath] = p
	}
}

func (l *loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	p := l.listed[path]
	if p == nil || p.Standard {
		pkg, err := l.std.Import(path)
		l.pkgs[path] = pkg
		return pkg, err
	}
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		l.files[path] = append(l.files[path], f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, l.files[path], l.info)
	l.pkgs[path] = pkg
	return pkg, err
}

// reacher walks references from the roots, to a fixed point.
type reacher struct {
	info      *types.Info
	module    map[*types.Package]bool
	decls     map[types.Object]ast.Node // every module-level declaration, method and interface method
	reached   map[types.Object]bool
	queue     []ast.Node
	types     []*types.Named  // reached module types, for standard-library dispatch
	dispatch  map[string]bool // method names a standard-library interface may call
	called    []*types.Func   // module interface methods reached code selects
	converted []types.Type    // module types, T or *T, reached code converts to an interface
	seen      map[any]bool    // what called and converted already hold
}

func newReacher(info *types.Info) *reacher {
	r := &reacher{
		info:     info,
		module:   map[*types.Package]bool{},
		decls:    map[types.Object]ast.Node{},
		reached:  map[types.Object]bool{},
		dispatch: map[string]bool{},
		seen:     map[any]bool{},
	}
	for _, name := range reflectDispatched {
		r.dispatch[name] = true
	}
	return r
}

// add records a module package's declarations and returns its roots: each
// main and init, and each package-level blank var but an interface
// assertion.
func (r *reacher) add(pkg *types.Package, files []*ast.File) (roots []ast.Node) {
	r.module[pkg] = true
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				r.decls[r.info.Defs[d.Name]] = d
				if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && f.Name.Name == "main") {
					roots = append(roots, d)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						r.decls[r.info.Defs[s.Name]] = s
						if it, ok := s.Type.(*ast.InterfaceType); ok {
							for _, m := range it.Methods.List {
								if len(m.Names) > 0 {
									r.decls[r.info.Defs[m.Names[0]]] = m
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.Name != "_" {
								r.decls[r.info.Defs[n]] = s
							} else if s.Type == nil || !types.IsInterface(r.info.TypeOf(s.Type)) {
								roots = append(roots, s)
							}
						}
					}
				}
			}
		}
	}
	return roots
}

func (r *reacher) walk(n ast.Node) {
	var stack []ast.Node
	var funcs []*types.Signature // the enclosing functions, innermost last
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			switch stack[len(stack)-1].(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				funcs = funcs[:len(funcs)-1]
			}
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch x := n.(type) {
		case *ast.Ident:
			if obj := r.info.Uses[x]; obj != nil {
				r.reach(obj)
			}
		case *ast.FuncDecl:
			funcs = append(funcs, r.info.Defs[x.Name].Type().(*types.Signature))
		case *ast.FuncLit:
			funcs = append(funcs, r.info.TypeOf(x).(*types.Signature))
		case *ast.AssignStmt:
			var dst []types.Type
			for _, lhs := range x.Lhs {
				dst = append(dst, r.info.TypeOf(lhs))
			}
			r.assign(dst, x.Rhs)
		case *ast.ValueSpec:
			if x.Type != nil {
				dst := make([]types.Type, len(x.Names))
				for i := range dst {
					dst[i] = r.info.TypeOf(x.Type)
				}
				r.assign(dst, x.Values)
			}
		case *ast.ReturnStmt:
			results := funcs[len(funcs)-1].Results()
			dst := make([]types.Type, results.Len())
			for i := range dst {
				dst[i] = results.At(i).Type()
			}
			r.assign(dst, x.Results)
		case *ast.SendStmt:
			if ch, ok := r.info.TypeOf(x.Chan).Underlying().(*types.Chan); ok {
				r.convert(ch.Elem(), r.info.TypeOf(x.Value))
			}
		case *ast.CallExpr:
			r.call(x)
		case *ast.CompositeLit:
			r.composite(x)
		}
		return true
	})
}

// assign converts each value to its destination; one call may fill several.
func (r *reacher) assign(dst []types.Type, values []ast.Expr) {
	if len(values) == 1 && len(dst) > 1 {
		if tuple, ok := r.info.TypeOf(values[0]).(*types.Tuple); ok {
			for i := 0; i < tuple.Len() && i < len(dst); i++ {
				r.convert(dst[i], tuple.At(i).Type())
			}
		}
		return
	}
	for i, v := range values {
		if i < len(dst) {
			r.convert(dst[i], r.info.TypeOf(v))
		}
	}
}

func (r *reacher) call(x *ast.CallExpr) {
	fun := r.info.Types[x.Fun]
	if fun.IsType() {
		if len(x.Args) == 1 {
			r.convert(fun.Type, r.info.TypeOf(x.Args[0]))
		}
		return
	}
	sig, ok := fun.Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	dst := make([]types.Type, max(params.Len(), len(x.Args)))
	for i := range dst {
		switch last := params.Len() - 1; {
		case sig.Variadic() && i >= last:
			dst[i] = params.At(last).Type()
			if s, ok := dst[i].Underlying().(*types.Slice); ok && !x.Ellipsis.IsValid() {
				dst[i] = s.Elem()
			}
		case i <= last:
			dst[i] = params.At(i).Type()
		}
	}
	r.assign(dst, x.Args)
}

func (r *reacher) composite(x *ast.CompositeLit) {
	t := r.info.TypeOf(x).Underlying()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem().Underlying()
	}
	for i, elt := range x.Elts {
		kv, _ := elt.(*ast.KeyValueExpr)
		if kv != nil {
			elt = kv.Value
		}
		switch u := t.(type) {
		case *types.Struct:
			if kv != nil {
				if field := r.info.Uses[kv.Key.(*ast.Ident)]; field != nil {
					r.convert(field.Type(), r.info.TypeOf(elt))
				}
			} else if i < u.NumFields() {
				r.convert(u.Field(i).Type(), r.info.TypeOf(elt))
			}
		case *types.Slice:
			r.convert(u.Elem(), r.info.TypeOf(elt))
		case *types.Array:
			r.convert(u.Elem(), r.info.TypeOf(elt))
		case *types.Map:
			if kv != nil {
				r.convert(u.Key(), r.info.TypeOf(kv.Key))
			}
			r.convert(u.Elem(), r.info.TypeOf(elt))
		}
	}
}

// convert records a module type, T or *T, that reached code converts to an
// interface.
func (r *reacher) convert(dst, src types.Type) {
	if dst == nil || src == nil || !types.IsInterface(dst) || types.IsInterface(src) {
		return
	}
	base := src
	if p, ok := src.(*types.Pointer); ok {
		base = p.Elem()
	}
	named, ok := base.(*types.Named)
	if !ok || !r.module[named.Obj().Pkg()] {
		return
	}
	key := [2]any{named.Origin(), base != src}
	if !r.seen[key] {
		r.seen[key] = true
		r.converted = append(r.converted, src)
	}
}

func (r *reacher) reach(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
		if recv := o.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			if o.Pkg() == nil || !r.module[o.Pkg()] {
				r.dispatch[o.Name()] = true
			} else if fn := obj.(*types.Func); !r.seen[fn] {
				r.seen[fn] = true
				r.called = append(r.called, fn)
			}
		}
	case *types.Var:
		obj = o.Origin()
	}
	if obj.Pkg() == nil || r.reached[obj] {
		return
	}
	r.reached[obj] = true
	if _, ok := r.decls[obj]; !ok {
		if r.module[obj.Pkg()] {
			return // a field, local or interface method of the modules
		}
		// The standard library: an interface it names, as its type or in
		// its signature, may be called on a module value.
		r.dispatchMethods(obj.Type())
		if sig, ok := obj.Type().(*types.Signature); ok {
			for i := 0; i < sig.Params().Len(); i++ {
				r.dispatchMethods(sig.Params().At(i).Type())
			}
		}
		return
	}
	r.queue = append(r.queue, r.decls[obj])
	if named, ok := obj.Type().(*types.Named); ok {
		if _, isType := obj.(*types.TypeName); isType {
			r.types = append(r.types, named)
		} else if tn := named.Obj(); tn.Pkg() != nil {
			r.reach(tn)
		}
	}
}

func (r *reacher) dispatchMethods(t types.Type) {
	if s, ok := t.(*types.Slice); ok {
		t = s.Elem()
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			r.dispatch[iface.Method(i).Name()] = true
		}
	}
}

// run walks the nodes and what they reach, then gives each converted type the
// methods a called module interface it implements dispatches to, and each
// reached type the methods a standard-library interface may call, until
// neither adds anything.
func (r *reacher) run(nodes ...ast.Node) {
	r.queue = append(r.queue, nodes...)
	for len(r.queue) > 0 {
		for len(r.queue) > 0 {
			n := r.queue[len(r.queue)-1]
			r.queue = r.queue[:len(r.queue)-1]
			r.walk(n)
		}
		for _, t := range r.converted {
			methods := types.NewMethodSet(t)
			for _, m := range r.called {
				sel := methods.Lookup(m.Pkg(), m.Name())
				iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
				if sel != nil && types.Implements(t, iface) {
					r.reach(sel.Obj())
				}
			}
		}
		for _, named := range r.types {
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); r.dispatch[m.Name()] {
					r.reach(m)
				}
			}
		}
	}
}

// internal reports whether obj is declared under internal/.
func internal(obj types.Object) bool {
	return strings.HasPrefix(obj.Pkg().Path(), "repro/internal/")
}

// declKey is pkg.Name, or pkg.Type.Method for a method.
func declKey(obj types.Object) string {
	key := obj.Pkg().Name() + "."
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				key += named.Obj().Name() + "."
			}
		}
	}
	return key + obj.Name()
}
