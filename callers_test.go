package advnet_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const modulePath = "advnet"

// buildContexts are the platforms the module is built for, each with and
// without the race detector. A declaration live in any of them is live.
func buildContexts() []build.Context {
	var ctxs []build.Context
	for _, arch := range []string{"amd64", "arm64"} {
		for _, tags := range [][]string{nil, {"race"}} {
			c := build.Default
			c.GOOS, c.GOARCH, c.BuildTags, c.CgoEnabled = "linux", arch, tags, false
			ctxs = append(ctxs, c)
		}
	}
	return ctxs
}

// declKey names a declaration the same way in every build context.
type declKey struct {
	file string
	off  int
}

type decl struct {
	name   string
	pos    token.Position
	recv   *types.TypeName // a method's receiver type
	uses   []types.Object
	root   bool
	report bool // a non-root declaration in internal/ or cmd/
}

// scan is the module type-checked under one build context.
type scan struct {
	t      *testing.T
	ctx    build.Context
	fset   *token.FileSet
	gc     types.Importer       // std packages, from their export data
	parsed map[string]*ast.File // by file name, shared by every context
	dirs   map[string]string    // module import path -> directory
	pkgs   map[string]*types.Package
	std    map[string]*types.Package // the std packages the module imports
	decls  map[declKey]*decl
	ifaces map[string]bool // every method name an interface declares
}

// TestEveryDeclarationHasACaller type-checks the module and fails on every
// package-level declaration in internal/ or cmd/ that no production path
// reaches. The roots are each cmd/ main, the benchmark module's main
// (bench/e2e), every init and every blank `var _` assertion; a test caller
// does not count, so a helper that only its own test calls fails here.
func TestEveryDeclarationHasACaller(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dirs := map[string]string{}
	for _, top := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(p string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if n := d.Name(); n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
				return filepath.SkipDir
			}
			rel, _ := filepath.Rel(root, p)
			dirs[modulePath+"/"+filepath.ToSlash(rel)] = p
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// The benchmark is a module of its own that imports this one.
	dirs[modulePath+"/bench/e2e"] = filepath.Join(root, "bench", "e2e")
	paths := make([]string, 0, len(dirs))
	for p := range dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", nil)
	parsed := map[string]*ast.File{}
	live := map[declKey]bool{}
	all := map[declKey]*decl{}
	for _, ctx := range buildContexts() {
		s := &scan{t: t, ctx: ctx, fset: fset, gc: gc, parsed: parsed, dirs: dirs,
			pkgs: map[string]*types.Package{}, std: map[string]*types.Package{},
			decls: map[declKey]*decl{}, ifaces: map[string]bool{"Error": true}}
		for _, p := range paths {
			s.load(p)
		}
		s.stdInterfaces()
		for k := range s.reach() {
			live[k] = true
		}
		for k, d := range s.decls {
			all[k] = d
		}
	}

	var dead []string
	for k, d := range all {
		if d.report && !live[k] {
			rel, _ := filepath.Rel(root, d.pos.Filename)
			dead = append(dead, rel+":"+strconv.Itoa(d.pos.Line)+" "+d.name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: no production path reaches it (call it from a cmd/ main or delete it)", d)
	}
}

func (s *scan) parse(file string) *ast.File {
	f, ok := s.parsed[file]
	if !ok {
		var err error
		if f, err = parser.ParseFile(s.fset, file, nil, parser.SkipObjectResolution); err != nil {
			s.t.Fatal(err)
		}
		s.parsed[file] = f
	}
	return f
}

// load type-checks the module package at path and records its declarations.
func (s *scan) load(path string) *types.Package {
	if pkg, ok := s.pkgs[path]; ok {
		return pkg
	}
	s.pkgs[path] = nil // an import cycle is the type checker's to report
	dir := s.dirs[path]
	entries, err := os.ReadDir(dir)
	if err != nil {
		s.t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := s.ctx.MatchFile(dir, name); err != nil {
			s.t.Fatal(err)
		} else if ok {
			files = append(files, s.parse(filepath.Join(dir, name)))
		}
	}
	if len(files) == 0 {
		return nil
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{
		Importer: importerFunc(func(p string) (*types.Package, error) {
			if _, ok := s.dirs[p]; ok {
				return s.load(p), nil
			}
			pkg, err := s.gc.Import(p)
			s.std[p] = pkg
			return pkg, err
		}),
		Sizes: types.SizesFor("gc", s.ctx.GOARCH),
	}
	pkg, err := conf.Check(path, s.fset, files, info)
	if err != nil {
		s.t.Fatalf("%s %s: %v", s.ctx.GOARCH, path, err)
	}
	s.pkgs[path] = pkg
	for _, tv := range info.Types {
		s.addInterface(tv.Type)
	}
	for _, obj := range info.Defs {
		if tn, ok := obj.(*types.TypeName); ok {
			s.addInterface(tn.Type())
		}
	}
	report := !strings.HasPrefix(path, modulePath+"/bench/")
	for _, f := range files {
		for _, d := range f.Decls {
			s.addDecl(d, pkg, info, report)
		}
	}
	return pkg
}

// addDecl records each package-level name d declares with what it uses.
func (s *scan) addDecl(d ast.Decl, pkg *types.Package, info *types.Info, report bool) {
	add := func(id *ast.Ident, node ast.Node, root bool) {
		dd := &decl{name: id.Name, pos: s.fset.Position(id.Pos()), root: root, report: report && !root}
		ast.Inspect(node, func(n ast.Node) bool {
			if u, ok := n.(*ast.Ident); ok && info.Uses[u] != nil {
				dd.uses = append(dd.uses, info.Uses[u])
			}
			return true
		})
		if id.Name == "_" {
			s.decls[declKey{dd.pos.Filename, dd.pos.Offset}] = dd
			return
		}
		obj := info.Defs[id]
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				dd.recv = namedOf(recv.Type())
				dd.name = dd.recv.Name() + "." + id.Name
			}
		}
		s.decls[s.key(obj)] = dd
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		add(d.Name, d, d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Name() == "main"))
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch sp := spec.(type) {
			case *ast.TypeSpec:
				add(sp.Name, sp, false)
			case *ast.ValueSpec:
				for _, id := range sp.Names {
					add(id, sp, id.Name == "_")
				}
			}
		}
	}
}

func (s *scan) key(obj types.Object) declKey {
	if fn, ok := obj.(*types.Func); ok {
		obj = fn.Origin()
	}
	p := s.fset.Position(obj.Pos())
	return declKey{p.Filename, p.Offset}
}

// stdInterfaces adds the method names of every interface the imported std
// packages declare: their named interfaces, and the literals in their source
// such as the interface{ Unwrap() error } that errors.Is asserts.
func (s *scan) stdInterfaces() {
	for path, pkg := range s.std {
		if pkg == nil {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				s.addInterface(tn.Type())
			}
		}
		bp, err := s.ctx.Import(path, "", 0)
		if err != nil {
			s.t.Fatal(err)
		}
		for _, name := range bp.GoFiles {
			ast.Inspect(s.parse(filepath.Join(bp.Dir, name)), func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, id := range m.Names {
							s.ifaces[id.Name] = true
						}
					}
				}
				return true
			})
		}
	}
}

func (s *scan) addInterface(t types.Type) {
	if t == nil {
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			s.ifaces[it.Method(i).Name()] = true
		}
	}
}

// reach walks from the roots. A method is also live when its receiver type is
// live and an interface names it, since a call through that interface reaches
// it without naming it.
func (s *scan) reach() map[declKey]bool {
	live := map[declKey]bool{}
	var queue []declKey
	mark := func(k declKey) {
		if _, ok := s.decls[k]; ok && !live[k] {
			live[k] = true
			queue = append(queue, k)
		}
	}
	methods := map[declKey][]declKey{} // receiver type -> its interface-named methods
	for k, d := range s.decls {
		if d.root {
			mark(k)
		}
		if d.recv != nil && s.ifaces[d.name[len(d.recv.Name())+1:]] {
			rk := s.key(d.recv)
			methods[rk] = append(methods[rk], k)
		}
	}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		for _, o := range s.decls[k].uses {
			mark(s.key(o))
		}
		for _, m := range methods[k] {
			mark(m)
		}
	}
	return live
}

// namedOf is the declared type behind a receiver T or *T.
func namedOf(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
