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
var reachAllowlist = map[string]string{
	"opm.UnmarshalXML":        "decodes the OPM XML a preserved package carries; the encoder's tests use it as their oracle",
	"audio.ReadWAV":           "decodes the WAV a preserved package carries; FuzzReadWAV and the encoder's tests use it",
	"linkeddata.ReadNTriples": "decodes the N-Triples the exporter writes; the exporter's tests use it as their oracle",
	"storage.DB.Tables":       "the table listing core's TestOrchestratedRunLeavesNoQueueState compares before and after a run",
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
// instantiation counts as its origin, and a reached interface — named in
// reached code, or in the signature of a standard-library function reached
// code calls — makes every same-named method of a reached type reachable.
// Every top-level declaration or method under internal/ that the walk never
// reaches, and that reachAllowlist does not name, fails the test.
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
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
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

	r := &reacher{l: l, decls: map[types.Object]ast.Node{}, reached: map[types.Object]bool{}, dispatch: map[string]bool{}}
	for _, name := range reflectDispatched {
		r.dispatch[name] = true
	}
	var roots []ast.Node
	for _, path := range paths {
		for _, f := range l.files[path] {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					r.decls[l.info.Defs[d.Name]] = d
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && f.Name.Name == "main") {
						roots = append(roots, d)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							r.decls[l.info.Defs[s.Name]] = s
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.Name == "_" {
									roots = append(roots, s)
								} else {
									r.decls[l.info.Defs[n]] = s
								}
							}
						}
					}
				}
			}
		}
	}
	for _, root := range roots {
		r.walk(root)
	}
	r.drain()
	// What an allowlisted declaration calls stays with it.
	allowed := map[string]bool{}
	for obj := range r.decls {
		if _, ok := reachAllowlist[declKey(obj)]; ok && !r.reached[obj] && internal(obj) {
			allowed[declKey(obj)] = true
			r.reach(obj)
		}
	}
	r.drain()

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
	l        *loader
	decls    map[types.Object]ast.Node // every module-level declaration and method
	reached  map[types.Object]bool
	queue    []ast.Node
	types    []*types.Named // reached module types, for method dispatch
	dispatch map[string]bool
}

func (r *reacher) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if obj := r.l.info.Uses[x]; obj != nil {
				r.reach(obj)
			}
		case *ast.InterfaceType:
			if tv, ok := r.l.info.Types[x]; ok {
				r.dispatchMethods(tv.Type)
			}
		}
		return true
	})
}

func (r *reacher) reach(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
		if recv := o.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			r.dispatch[o.Name()] = true
		}
	case *types.Var:
		obj = o.Origin()
	}
	if obj.Pkg() == nil || r.reached[obj] {
		return
	}
	r.reached[obj] = true
	if _, ok := r.decls[obj]; !ok {
		// Not a declaration of the modules — the standard library, a field,
		// a local: an interface it names, as its type or in its signature,
		// may be called on a module value.
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
			r.dispatchMethods(named)
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

// drain walks the queue, then gives each reached type the methods a reached
// interface can dispatch to, until neither adds anything.
func (r *reacher) drain() {
	for {
		for len(r.queue) > 0 {
			n := r.queue[len(r.queue)-1]
			r.queue = r.queue[:len(r.queue)-1]
			r.walk(n)
		}
		for _, named := range r.types {
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); r.dispatch[m.Name()] {
					r.reach(m)
				}
			}
		}
		if len(r.queue) == 0 {
			return
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
