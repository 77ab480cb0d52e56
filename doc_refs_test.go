package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docsChecked are the documents whose code spans must name what the tree has.
// benchmark/README.md belongs to the benchmark module and is left out.
var docsChecked = []string{"DESIGN.md", "API.md", "README.md"}

var (
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// goRef is pkg.Ident or pkg.Type.Member, optionally called. A name with
	// an underscore is a metric (taxonomy.batch_size_mean), not Go.
	goRef = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Za-z][A-Za-z0-9]*)(?:\.([A-Za-z][A-Za-z0-9]*))?(?:\(.*\))?$`)
)

// TestDocReferencesResolve is the ci guard against docs that name deleted
// code. In DESIGN.md, API.md and README.md, outside fenced blocks, every code
// span that is
//
//   - pkg.Ident or pkg.Type.Member, where pkg is a directory under internal/
//     or cmd/, must name a declaration, field or method in that package's
//     non-test files;
//   - a *.go file name, or a path under internal/ or cmd/, must exist: a path
//     where it says, a bare file name anywhere in the tree.
func TestDocReferencesResolve(t *testing.T) {
	goFiles := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			goFiles[d.Name()] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pkgs := map[string]*pkgDecls{} // by directory; nil: no Go package there
	// resolves reports whether ref names something its package declares; a
	// pkg that is no package of the tree is not checked.
	resolves := func(ref []string) bool {
		checked := false
		for _, dir := range []string{"internal/" + ref[1], "cmd/" + ref[1]} {
			p, ok := pkgs[dir]
			if !ok {
				p = parsePkg(t, dir)
				pkgs[dir] = p
			}
			if p != nil {
				if p.has(ref[2], ref[3]) {
					return true
				}
				checked = true
			}
		}
		return !checked
	}
	for _, doc := range docsChecked {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				span := m[1]
				problem := ""
				path, _, _ := strings.Cut(span, " ")
				switch {
				case strings.HasPrefix(path, "internal/") || strings.HasPrefix(path, "cmd/"):
					if _, err := os.Stat(path); err != nil {
						problem = "is no path of the tree"
					}
				case strings.HasSuffix(span, ".go") && !strings.ContainsAny(span, "/ "):
					if !goFiles[span] {
						problem = "is no Go file of the tree"
					}
				default:
					if ref := goRef.FindStringSubmatch(span); ref != nil && !resolves(ref) {
						problem = "names nothing declared in package " + ref[1]
					}
				}
				if problem != "" {
					t.Errorf("%s:%d: `%s` %s", doc, i+1, span, problem)
				}
			}
		}
	}
}

// pkgDecls is what one package's non-test files declare: every name, top
// level or a member of a type (docs write a method as pkg.Method too), and
// the fields and methods of each type.
type pkgDecls struct {
	names   map[string]bool
	members map[string]map[string]bool
}

func (p *pkgDecls) has(name, member string) bool {
	if member == "" {
		return p.names[name]
	}
	return p.members[name][member]
}

func (p *pkgDecls) addMember(typ, name string) {
	if p.members[typ] == nil {
		p.members[typ] = map[string]bool{}
	}
	p.members[typ][name] = true
	p.names[name] = true
}

// parsePkg reads the declarations of the package in dir, nil when dir holds
// no Go package.
func parsePkg(t *testing.T, dir string) *pkgDecls {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	p := &pkgDecls{names: map[string]bool{}, members: map[string]map[string]bool{}}
	fset := token.NewFileSet()
	parsed := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		parsed++
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					p.names[d.Name.Name] = true
				} else {
					p.addMember(receiverType(d.Recv.List[0].Type), d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							p.names[n.Name] = true
						}
					case *ast.TypeSpec:
						p.names[s.Name.Name] = true
						p.addTypeMembers(s.Name.Name, s.Type)
					}
				}
			}
		}
	}
	if parsed == 0 {
		return nil
	}
	return p
}

// addTypeMembers records the fields of a struct type and the methods of an
// interface; an embedded field goes by its type's name.
func (p *pkgDecls) addTypeMembers(typ string, expr ast.Expr) {
	var fields *ast.FieldList
	switch x := expr.(type) {
	case *ast.StructType:
		fields = x.Fields
	case *ast.InterfaceType:
		fields = x.Methods
	default:
		return
	}
	for _, f := range fields.List {
		for _, n := range f.Names {
			p.addMember(typ, n.Name)
		}
		if len(f.Names) == 0 {
			p.addMember(typ, receiverType(f.Type))
		}
	}
}

// receiverType is the bare type name of a receiver or embedded field:
// *T, T[P] and pkg.T all give T.
func receiverType(expr ast.Expr) string {
	switch x := expr.(type) {
	case *ast.StarExpr:
		return receiverType(x.X)
	case *ast.IndexExpr:
		return receiverType(x.X)
	case *ast.IndexListExpr:
		return receiverType(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}
