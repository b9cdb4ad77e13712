package repro_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// benchOnlyShims are the declarations that survive only because the
// frozen benchmark module (bench/) names them. Production code must not
// reference them, so the inert surface can only shrink until the
// benchmark is re-baselined and they are deleted. field is empty for a
// package-level object.
var benchOnlyShims = []struct{ pkg, obj, field string }{
	{"repro/internal/formula", "ProbCache", ""},
	{"repro/internal/formula", "NewProbCache", ""},
	{"repro", "NewProbCache", ""},
	{"repro", "WithSharedCache", ""},
	{"repro/internal/core", "Options", "Cache"},
	{"repro/internal/core", "Options", "Pool"},
	{"repro/internal/core", "ExactProbability", ""},
	{"repro/internal/engine", "Exact", ""},
	{"repro/internal/plan", "Options", "Shards"},
	{"repro/internal/plan", "Plan", "Shards"},
	{"repro/internal/obs", "Snapshot", "ProbCacheHits"},
	{"repro/internal/obs", "Snapshot", "ProbCacheMisses"},
	{"repro/internal/pdb", "ConfTopK", ""},
}

// shimAllowances are the references outside bench/ that remain on
// purpose, by shim and file: the planner sets Plan.Shards to the 1
// bench/ reads, and a test pins the behaviour of the ConfTopK bench/
// calls.
var shimAllowances = map[string]int{
	"repro/internal/plan.Plan.Shards in internal/plan/planner.go": 1,
	"repro/internal/pdb.ConfTopK in internal/pdb/rank_test.go":    1,
}

// TestBenchOnlyShimsUnused type-checks every package outside bench/
// from source, with its in-package and its external test files, and
// fails on any reference to a bench-only shim outside its own
// declaration, and on any pdb.ConfWith call whose sixth argument is not
// nil (or a ConfWith that names that parameter).
func TestBenchOnlyShimsUnused(t *testing.T) {
	if raceEnabled {
		t.Skip("a static check; the race detector only slows the type checker down")
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// Standard-library imports are type-checked from GOROOT's source
	// without cgo, so the check needs neither export data nor a C
	// toolchain.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	m := &modChecker{fset: fset, root: root, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*modPackage{}}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if rel == "bench" || d.Name() == "testdata" || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if files, _ := filepath.Glob(filepath.Join(path, "*.go")); len(files) > 0 {
			err = m.checkTests(filepath.ToSlash(filepath.Join("repro", rel)))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// Each shim's declaration, keyed by the position of its name: a
	// test variant of a package re-checks the package's own syntax, so
	// its objects differ from the package's but sit at the same place.
	type span struct{ lo, hi token.Pos }
	decl := map[token.Pos]span{}
	name := map[token.Pos]string{}
	for _, s := range benchOnlyShims {
		p := m.pkgs[s.pkg]
		if p == nil {
			t.Fatalf("package %s not checked", s.pkg)
		}
		obj := p.pkg.Scope().Lookup(s.obj)
		full := s.pkg + "." + s.obj
		if obj != nil && s.field != "" {
			full += "." + s.field
			st, _ := obj.Type().Underlying().(*types.Struct)
			obj = nil
			for i := 0; st != nil && i < st.NumFields(); i++ {
				if st.Field(i).Name() == s.field {
					obj = st.Field(i)
				}
			}
		}
		if obj == nil {
			t.Fatalf("shim %s not found: drop it from benchOnlyShims", full)
		}
		n := p.enclosingDecl(obj.Pos())
		decl[obj.Pos()], name[obj.Pos()] = span{n.Pos(), n.End()}, full
	}

	refs := map[string]int{}
	confWith := token.NoPos
	if p := m.pkgs["repro/internal/pdb"]; p != nil {
		confWith = p.pkg.Scope().Lookup("ConfWith").Pos()
	}
	isConfWith := func(obj types.Object) bool { return obj != nil && confWith.IsValid() && obj.Pos() == confWith }
	for _, p := range m.checked {
		for id, obj := range p.info.Uses {
			sp, ok := decl[obj.Pos()]
			if !ok || !p.owns(id.Pos()) || (id.Pos() >= sp.lo && id.Pos() < sp.hi) {
				continue
			}
			file, _ := filepath.Rel(root, fset.Position(id.Pos()).Filename)
			key := name[obj.Pos()] + " in " + filepath.ToSlash(file)
			refs[key]++
			if shimAllowances[key] == 0 {
				t.Errorf("%s: code outside bench/ references %s, which only bench/ may name", fset.Position(id.Pos()), name[obj.Pos()])
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if isConfWith(p.info.Defs[n.Name]) {
						if params := n.Type.Params.List; len(params) > 0 {
							if last := params[len(params)-1]; len(last.Names) == 1 && last.Names[0].Name != "_" {
								t.Errorf("%s: ConfWith names its sixth parameter, which only bench/ may set", fset.Position(last.Pos()))
							}
						}
					}
				case *ast.CallExpr:
					fn := n.Fun
					if sel, ok := fn.(*ast.SelectorExpr); ok {
						fn = sel.Sel
					}
					if id, ok := fn.(*ast.Ident); ok && isConfWith(p.info.Uses[id]) {
						if len(n.Args) != 6 || p.info.Uses[identOf(n.Args[5])] != types.Universe.Lookup("nil") {
							t.Errorf("%s: ConfWith's sixth argument must be nil; only bench/ may set it", fset.Position(n.Pos()))
						}
					}
				}
				return true
			})
		}
	}
	for key, n := range shimAllowances {
		if refs[key] != n {
			t.Errorf("allowance %q expects %d references, found %d: lower it", key, n, refs[key])
		}
	}
}

func identOf(e ast.Expr) *ast.Ident {
	id, _ := e.(*ast.Ident)
	return id
}

// modChecker type-checks the module's packages from source, each once,
// serving them to one another as imports, and then each package's test
// variants.
type modChecker struct {
	fset    *token.FileSet
	root    string
	std     types.Importer
	pkgs    map[string]*modPackage // by import path, as other packages import them
	checked []*modPackage          // the packages and test variants to scan
}

type modPackage struct {
	pkg   *types.Package
	files []*ast.File // the files to scan: a test variant's test files alone
	info  *types.Info
}

// owns reports whether pos lies in one of p's files.
func (p *modPackage) owns(pos token.Pos) bool {
	for _, f := range p.files {
		if pos >= f.Pos() && pos < f.End() {
			return true
		}
	}
	return false
}

func (m *modChecker) Import(path string) (*types.Package, error) {
	if path != "repro" && !strings.HasPrefix(path, "repro/") {
		return m.std.Import(path)
	}
	p, err := m.check(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

func (m *modChecker) dir(path string) (*build.Package, error) {
	return build.Default.ImportDir(filepath.Join(m.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, "repro"), "/"))), 0)
}

func (m *modChecker) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// typeCheck checks files as package path and queues the result, whose
// scanned files are scan, for the reference sweep.
func (m *modChecker) typeCheck(path string, files, scan []*ast.File, imp types.Importer) (*modPackage, error) {
	p := &modPackage{files: scan, info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}}
	var err error
	if p.pkg, err = (&types.Config{Importer: imp}).Check(path, m.fset, files, p.info); err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	m.checked = append(m.checked, p)
	return p, nil
}

func (m *modChecker) check(path string) (*modPackage, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	bp, err := m.dir(path)
	if err != nil {
		return nil, err
	}
	files, err := m.parse(bp.Dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	p, err := m.typeCheck(path, files, files, m)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	return p, nil
}

// checkTests checks the package at path, then its in-package test files
// together with its own files, and its external test files as a
// package of their own that imports it.
func (m *modChecker) checkTests(path string) error {
	p, err := m.check(path)
	if err != nil {
		return err
	}
	bp, err := m.dir(path)
	if err != nil {
		return err
	}
	if tests, err := m.parse(bp.Dir, bp.TestGoFiles); err != nil {
		return err
	} else if len(tests) > 0 {
		if _, err := m.typeCheck(path, append(slices.Clone(p.files), tests...), tests, m); err != nil {
			return err
		}
	}
	if xtests, err := m.parse(bp.Dir, bp.XTestGoFiles); err != nil {
		return err
	} else if len(xtests) > 0 {
		if _, err := m.typeCheck(path+"_test", xtests, xtests, m); err != nil {
			return err
		}
	}
	return nil
}

// enclosingDecl returns the declaration that declares the object at
// pos: its struct field, value or type spec, or function.
func (p *modPackage) enclosingDecl(pos token.Pos) ast.Node {
	var found ast.Node
	for _, f := range p.files {
		if pos < f.Pos() || pos >= f.End() {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil || pos < n.Pos() || pos >= n.End() {
				return false
			}
			switch n.(type) {
			case *ast.Field, *ast.ValueSpec, *ast.TypeSpec, *ast.FuncDecl:
				found = n
			}
			return true
		})
	}
	return found
}
