package cluster

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestOneNodeToNodeModule keeps outbound HTTP in one place: outside
// this package no product file builds an http.Client or a request, in
// it exactly one call site does (call), and it never imports the worker
// package — so the next peer call is written as a caller of call, and a
// transport change stays a change to one function.
func TestOneNodeToNodeModule(t *testing.T) {
	// Outbound HTTP that is not node-to-node traffic.
	allowed := map[string]string{
		"internal/proctest/proctest.go": "test launcher scraping /metrics of the processes it started",
	}
	outbound := map[string]bool{
		"Client": true, "NewRequest": true, "NewRequestWithContext": true,
		"Get": true, "Post": true, "PostForm": true, "Head": true,
	}
	fset := token.NewFileSet()
	requestsHere := 0
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			rel := strings.TrimPrefix(filepath.ToSlash(path), "../../")
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			here := strings.HasPrefix(rel, "internal/cluster/")
			httpName := ""
			for _, imp := range file.Imports {
				switch p, _ := strconv.Unquote(imp.Path.Value); {
				case p == "net/http":
					httpName = "http"
					if imp.Name != nil {
						httpName = imp.Name.Name
					}
				case p == "idnlab/internal/serve" && here:
					t.Errorf("%s imports internal/serve", rel)
				}
			}
			if httpName == "" || allowed[rel] != "" {
				return nil
			}
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || !outbound[sel.Sel.Name] {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); !ok || x.Name != httpName {
					return true
				}
				switch {
				case !here:
					t.Errorf("%s: %s.%s outside internal/cluster", fset.Position(sel.Pos()), httpName, sel.Sel.Name)
				case strings.HasPrefix(sel.Sel.Name, "NewRequest"):
					requestsHere++
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if requestsHere != 1 {
		t.Errorf("internal/cluster builds requests in %d places, want exactly 1 (call)", requestsHere)
	}
}

// TestEveryPackageAnswersToAGate keeps the inventory cut: every package
// under internal/ is reached, through non-test imports, from a binary
// in cmd/, from the benchmark harness (bench/e2e) or from the smoke
// drills (internal/smoke, whose files are the one place test imports
// count). A package only its own tests import is unused code.
func TestEveryPackageAnswersToAGate(t *testing.T) {
	const prefix = "idnlab/internal/"
	fset := token.NewFileSet()
	reached := map[string]bool{"smoke": true}
	var queue []string
	// visit records the internal packages the matching files import.
	visit := func(glob string, withTests bool) {
		files, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") && !withTests {
				continue
			}
			file, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range file.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if pkg, ok := strings.CutPrefix(p, prefix); ok && !reached[pkg] {
					reached[pkg] = true
					queue = append(queue, pkg)
				}
			}
		}
	}
	visit("../../cmd/*/*.go", false)
	visit("../../bench/e2e/*.go", false)
	visit("../../internal/smoke/*.go", true)
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		visit("../../internal/"+pkg+"/*.go", false)
	}
	sources, err := filepath.Glob("../../internal/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range sources {
		if pkg := filepath.Base(filepath.Dir(path)); !reached[pkg] {
			reached[pkg] = true // report once
			t.Errorf("internal/%s: no cmd/ binary, bench/e2e or smoke drill reaches it", pkg)
		}
	}
}

// declAllowed are the declarations TestEveryDeclarationAnswersToAGate
// lets stand without a use, each with the reason.
var declAllowed = map[string]string{
	"internal/whois.Parse":          "WHOIS codec: the study reading WHOIS text gives it a caller, or it goes (ROADMAP)",
	"internal/whois.Render":         "WHOIS codec: the study reading WHOIS text gives it a caller, or it goes (ROADMAP)",
	"internal/zonefile.Parse":       "zone-file reader: the study reading zone files gives it a caller, or it goes (ROADMAP)",
	"internal/vstore.Store.Compact": "test hook: framelog/format_test.go compacts a store to pin the snapshot layout",
}

// modulePkg is one package of the module, or bench/e2e, type-checked
// from source.
type modulePkg struct {
	path  string
	files []*ast.File
	check bool // its declarations must answer to a gate
	info  *types.Info
	pkg   *types.Package
}

// moduleSources is every package of the module from its non-test files
// (plus the smoke drills, whose helpers are declarations too) and
// bench/e2e, type-checked once per test binary for the gates below.
type moduleSources struct {
	fset *token.FileSet
	pkgs []*modulePkg
}

const module = "idnlab/"

var loadModule = sync.OnceValues(func() (*moduleSources, error) {
	fset := token.NewFileSet()
	parse := func(paths []string) ([]*ast.File, error) {
		files := make([]*ast.File, len(paths))
		for i, path := range paths {
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files[i] = f
		}
		return files, nil
	}
	glob := func(pattern string, tests bool) ([]*ast.File, error) {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			return nil, err
		}
		var out []string
		for _, p := range paths {
			if strings.HasSuffix(p, "_test.go") == tests {
				out = append(out, p)
			}
		}
		return parse(out)
	}
	benchFiles, err := glob("../../bench/e2e/*.go", false)
	if err != nil {
		return nil, err
	}
	smokeFiles, err := glob("../../internal/smoke/*_test.go", true)
	if err != nil {
		return nil, err
	}

	// Export data for every dependency of the module, plus the standard
	// packages that only bench/e2e and the smoke drills import.
	args := []string{"list", "-export", "-deps", "-f",
		"{{.ImportPath}}\t{{.Export}}\t{{if not .Standard}}{{.Dir}}\t{{join .GoFiles \" \"}}{{end}}", "./..."}
	for _, f := range append(benchFiles, smokeFiles...) {
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); !strings.HasPrefix(p, module) {
				args = append(args, p)
			}
		}
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = "../.."
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	exports := make(map[string]string)
	var pkgs []*modulePkg
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		exports[f[0]] = f[1]
		if !strings.HasPrefix(f[0], module) || len(f) < 4 {
			continue
		}
		var paths []string
		for _, name := range strings.Fields(f[3]) {
			paths = append(paths, filepath.Join(f[2], name))
		}
		files, err := parse(paths)
		if err != nil {
			return nil, err
		}
		p := &modulePkg{path: f[0], files: files, check: true}
		if p.path == module+"internal/smoke" {
			p.files = append(p.files, smokeFiles...)
		}
		pkgs = append(pkgs, p)
	}
	pkgs = append(pkgs, &modulePkg{path: module + "bench/e2e", files: benchFiles})

	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})
	for _, p := range pkgs {
		p.info = &types.Info{
			Uses:       make(map[*ast.Ident]types.Object),
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: imp}
		if p.pkg, err = conf.Check(p.path, fset, p.files, p.info); err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.path, err)
		}
	}
	return &moduleSources{fset: fset, pkgs: pkgs}, nil
})

// TestEveryDeclarationAnswersToAGate is TestEveryPackageAnswersToAGate
// one level down: every package-level declaration and method in a
// non-test file under cmd/ or internal/ (and every helper in the smoke
// drills) is used outside its own declaration by those files, by
// bench/e2e or by the smoke drills. A method is exempt when its receiver
// satisfies an interface that declares it, since the call then goes
// through the interface. Imports are typed from the compiler's export
// data (go list -export), so the cost is a type-check of these sources
// alone.
func TestEveryDeclarationAnswersToAGate(t *testing.T) {
	mod, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	fset, pkgs := mod.fset, mod.pkgs

	// key names a declaration the same way whether it was typed from
	// source or from export data: path, receiver, name.
	key := func(obj types.Object) string {
		if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), module) {
			return ""
		}
		path := strings.TrimPrefix(obj.Pkg().Path(), module)
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Origin().Type().(*types.Signature).Recv(); recv != nil {
				typ := recv.Type()
				if ptr, ok := typ.(*types.Pointer); ok {
					typ = ptr.Elem()
				}
				named, ok := typ.(*types.Named)
				if !ok {
					return ""
				}
				return path + "." + named.Origin().Obj().Name() + "." + obj.Name()
			}
		}
		if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
			return "" // a local, a field or a parameter
		}
		return path + "." + obj.Name()
	}

	type decl struct {
		pkg        *modulePkg
		name       string
		recv       string
		start, end token.Pos
	}
	decls := make(map[string]*decl)
	for _, p := range pkgs {
		if !p.check {
			continue
		}
		path := strings.TrimPrefix(p.path, module)
		add := func(recv, name string, start, end token.Pos) {
			if name == "_" {
				return
			}
			k := path + "." + name
			if recv != "" {
				k = path + "." + recv + "." + name
			}
			decls[k] = &decl{pkg: p, name: name, recv: recv, start: start, end: end}
		}
		for _, f := range p.files {
			smoke := strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						if d.Name.Name == "main" || d.Name.Name == "init" ||
							smoke && (strings.HasPrefix(d.Name.Name, "Test") || strings.HasPrefix(d.Name.Name, "Fuzz") || strings.HasPrefix(d.Name.Name, "Benchmark")) {
							continue
						}
						add("", d.Name.Name, d.Pos(), d.End())
						continue
					}
					typ := d.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					switch x := typ.(type) {
					case *ast.IndexExpr:
						typ = x.X
					case *ast.IndexListExpr:
						typ = x.X
					}
					add(typ.(*ast.Ident).Name, d.Name.Name, d.Pos(), d.End())
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add("", s.Name.Name, s.Pos(), s.End())
						case *ast.ValueSpec:
							for _, n := range s.Names {
								add("", n.Name, s.Pos(), s.End())
							}
						}
					}
				}
			}
		}
	}

	used := make(map[string]bool)
	for _, p := range pkgs {
		for id, obj := range p.info.Uses {
			k := key(obj)
			if d := decls[k]; d == nil || d.pkg == p && id.Pos() >= d.start && id.Pos() < d.end {
				continue
			}
			used[k] = true
		}
	}

	// Every interface in sight, by method name: declared in a checked
	// package or anything it imports, or written inline in a source.
	ifaces := make(map[string][]*types.Interface)
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				name := it.Method(i).Name()
				ifaces[name] = append(ifaces[name], it)
			}
		}
	}
	seen := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, dep := range pkg.Imports() {
			walk(dep)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, p := range pkgs {
		walk(p.pkg)
		for _, tv := range p.info.Types {
			addIface(tv.Type)
		}
	}
	// satisfies reports whether d's receiver implements an interface
	// that declares d's method, so the method is called through it.
	satisfies := func(d *decl) bool {
		recv, ok := d.pkg.pkg.Scope().Lookup(d.recv).(*types.TypeName)
		if !ok {
			return false
		}
		for _, it := range ifaces[d.name] {
			if types.Implements(recv.Type(), it) || types.Implements(types.NewPointer(recv.Type()), it) {
				return true
			}
		}
		return false
	}

	var unused []string
	for k, d := range decls {
		if used[k] || d.recv != "" && satisfies(d) {
			if declAllowed[k] != "" {
				t.Errorf("%s is allowed unused but has a use now: drop it from declAllowed", k)
			}
			continue
		}
		if declAllowed[k] == "" {
			unused = append(unused, fmt.Sprintf("%s: %s", fset.Position(d.start), k))
		}
	}
	for k := range declAllowed {
		if decls[k] == nil {
			t.Errorf("declAllowed names %s, which is not declared", k)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s: no use outside its own declaration in cmd/, internal/, bench/e2e or the smoke drills", u)
	}
}

// cfgAllowed are the config fields TestEveryConfigFieldHasASetter lets
// stand without a setter, each with the reason.
var cfgAllowed = map[string]string{
	"internal/cluster.MembershipConfig.Now": "test seam: the membership tests drive a fake clock",
	"internal/cluster.RouterConfig.Client":  "test seam: the router and gateway tests swap in a fake transport",
	"internal/cluster.GatewayConfig.Router": "test seam: carries RouterConfig.Client into a gateway under test",
	"internal/vstore.Config.CompactBytes":   "test seam: the store tests reach compaction without writing 8 MiB",
	"internal/vstore.Config.NoFsync":        "test seam: the store tests and fuzzers skip fsync",
}

// TestEveryConfigFieldHasASetter holds the daemons to deployment
// settings only: every exported field of every exported *Config or
// *Options struct in non-test internal/ code is written, as a
// composite-literal key or an assignment, by a non-test file in cmd/, a
// non-test file in internal/ outside the struct's own methods (its
// withDefaults), or bench/e2e. A value that only tests or the defaults
// write is a constant next to the code it bounds.
func TestEveryConfigFieldHasASetter(t *testing.T) {
	mod, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	deref := func(typ types.Type) types.Type {
		if ptr, ok := typ.(*types.Pointer); ok {
			return ptr.Elem()
		}
		return typ
	}
	// owner names a struct type the same way whether it was typed from
	// source or from export data: path, type name.
	owner := func(typ types.Type) string {
		named, ok := deref(typ).(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return ""
		}
		return strings.TrimPrefix(named.Obj().Pkg().Path(), module) + "." + named.Origin().Obj().Name()
	}

	fields := make(map[string]token.Pos)
	for _, p := range mod.pkgs {
		if !strings.HasPrefix(p.path, module+"internal/") {
			continue
		}
		for _, name := range p.pkg.Scope().Names() {
			tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || strings.HasSuffix(mod.fset.Position(tn.Pos()).Filename, "_test.go") ||
				!strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Options") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[owner(tn.Type())+"."+f.Name()] = f.Pos()
				}
			}
		}
	}

	set := make(map[string]bool)
	for _, p := range mod.pkgs {
		for _, file := range p.files {
			if strings.HasSuffix(mod.fset.Position(file.Pos()).Filename, "_test.go") {
				continue
			}
			for _, d := range file.Decls {
				// A struct's own methods (its defaults) do not count.
				self := ""
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil {
					self = owner(p.info.TypeOf(fn.Recv.List[0].Type))
				}
				write := func(typ types.Type, field string) {
					if o := owner(typ); o != "" && o != self {
						set[o+"."+field] = true
					}
				}
				// written records the field an assignment's target selects.
				written := func(x ast.Expr) {
					sel, ok := ast.Unparen(x).(*ast.SelectorExpr)
					if !ok {
						return
					}
					s := p.info.Selections[sel]
					if s == nil || s.Kind() != types.FieldVal {
						return
					}
					typ := s.Recv()
					for _, i := range s.Index()[:len(s.Index())-1] {
						typ = deref(typ).Underlying().(*types.Struct).Field(i).Type()
					}
					write(typ, sel.Sel.Name)
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						typ := p.info.TypeOf(n)
						if typ == nil {
							return true
						}
						if _, ok := deref(typ).Underlying().(*types.Struct); !ok {
							return true
						}
						for _, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if id, ok := kv.Key.(*ast.Ident); ok {
									write(typ, id.Name)
								}
							}
						}
					case *ast.AssignStmt:
						for _, x := range n.Lhs {
							written(x)
						}
					case *ast.IncDecStmt:
						written(n.X)
					}
					return true
				})
			}
		}
	}

	var unset []string
	for k, pos := range fields {
		switch {
		case set[k] && cfgAllowed[k] != "":
			t.Errorf("%s is allowed without a setter but has one now: drop it from cfgAllowed", k)
		case !set[k] && cfgAllowed[k] == "":
			unset = append(unset, fmt.Sprintf("%s: %s", mod.fset.Position(pos), k))
		}
	}
	for k := range cfgAllowed {
		if _, ok := fields[k]; !ok {
			t.Errorf("cfgAllowed names %s, which is not a config field", k)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s: no setter in cmd/, internal/ outside its defaults, or bench/e2e: make it a constant", u)
	}
}
