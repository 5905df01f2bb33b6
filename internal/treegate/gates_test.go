// Package treegate holds the tree-wide gates: tests that read the whole
// module from source (parsed and type-checked once, by loadModule) and
// hold every package to the same rules. It has no non-test files, so no
// binary links it.
package treegate

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
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
// internal/cluster no product file builds an http.Client or a request,
// in it exactly one call site does (call), and it never imports the
// worker package — so the next peer call is written as a caller of call, and a
// transport change stays a change to one function.
func TestOneNodeToNodeModule(t *testing.T) {
	mod, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	// Outbound HTTP that is not node-to-node traffic.
	allowed := map[string]string{
		"internal/proctest/proctest.go": "test launcher scraping /metrics of the processes it started",
	}
	outbound := map[string]bool{
		"Client": true, "NewRequest": true, "NewRequestWithContext": true,
		"Get": true, "Post": true, "PostForm": true, "Head": true,
	}
	requestsHere := 0
	for _, pkg := range mod.pkgs {
		dir := strings.TrimPrefix(pkg.path, module)
		if !strings.HasPrefix(dir, "internal/") && !strings.HasPrefix(dir, "cmd/") {
			continue
		}
		here := dir == "internal/cluster"
		for _, file := range pkg.files {
			path := mod.fset.Position(file.Pos()).Filename
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			rel := dir + "/" + filepath.Base(path)
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
				continue
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
					t.Errorf("%s: %s.%s outside internal/cluster", mod.fset.Position(sel.Pos()), httpName, sel.Sel.Name)
				case strings.HasPrefix(sel.Sel.Name, "NewRequest"):
					requestsHere++
				}
				return true
			})
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
	mod, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	const prefix = module + "internal/"
	// treegate is this package: tests only, so no binary can reach it.
	reached := map[string]bool{"smoke": true, "treegate": true}
	imports := make(map[string][]*ast.File)
	var queue []string
	for _, p := range mod.pkgs {
		imports[p.path] = p.files
		if strings.HasPrefix(p.path, module+"cmd/") || p.path == module+"bench/e2e" || p.path == prefix+"smoke" {
			queue = append(queue, p.path)
		}
	}
	// The smoke drills are the one place test imports count: loadModule
	// adds their test files to internal/smoke, and no other test file.
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		for _, file := range imports[path] {
			for _, imp := range file.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if pkg, ok := strings.CutPrefix(p, prefix); ok && !reached[pkg] {
					reached[pkg] = true
					queue = append(queue, p)
				}
			}
		}
	}
	for _, p := range mod.pkgs {
		if pkg, ok := strings.CutPrefix(p.path, prefix); ok && !reached[pkg] {
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
	"internal/certs.Classify":       "one certificate's whole Table VI check (CheckChain then CheckHost): the per-domain reference core's memoized census is tested against",
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

// detectorAllowed are the places TestOneVerdictDoor lets build a
// detector of their own, by directory and detector type, each with the
// reason.
var detectorAllowed = map[string]string{
	"cmd/idnindex HomographDetector": "verify compares the index with the brute sweep over the same catalog",
	"cmd/idnwatch HomographDetector": "the watch Matcher takes a bare detector, until an alert is a verdict (ROADMAP)",
	"cmd/idndetect Type2Detector":    "Type-2 is not in core.Classifier",
}

// TestOneVerdictDoor keeps one way to reach a verdict: outside
// internal/core, a non-test file under cmd/ or internal/ builds a
// HomographDetector, SemanticDetector or Type2Detector — by naming a
// core function that returns one, a composite literal or new — only
// where detectorAllowed says why. Everything else classifies through
// core.Classifier, the door the service answers from; a method such as
// Clone copies a detector its caller was handed and does not count.
func TestOneVerdictDoor(t *testing.T) {
	mod, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	// detector names the core detector type typ is or points to, or "".
	detector := func(typ types.Type) string {
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		named, ok := typ.(*types.Named)
		if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != module+"internal/core" {
			return ""
		}
		switch name := named.Obj().Name(); name {
		case "HomographDetector", "SemanticDetector", "Type2Detector":
			return name
		}
		return ""
	}
	built := make(map[string]bool)
	for _, p := range mod.pkgs {
		dir := strings.TrimPrefix(p.path, module)
		if dir == "internal/core" || !strings.HasPrefix(dir, "cmd/") && !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range p.files {
			if strings.HasSuffix(mod.fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				var made []types.Type
				switch n := n.(type) {
				case *ast.Ident:
					// A core function (not a method) returning a detector,
					// called or passed as a value.
					fn, ok := p.info.Uses[n].(*types.Func)
					if !ok || fn.Pkg() == nil || fn.Pkg().Path() != module+"internal/core" {
						return true
					}
					sig := fn.Type().(*types.Signature)
					if sig.Recv() != nil {
						return true
					}
					for i := 0; i < sig.Results().Len(); i++ {
						made = append(made, sig.Results().At(i).Type())
					}
				case *ast.CompositeLit:
					made = append(made, p.info.TypeOf(n))
				case *ast.CallExpr:
					if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
						if b, ok := p.info.Uses[id].(*types.Builtin); ok && b.Name() == "new" {
							made = append(made, p.info.TypeOf(n))
						}
					}
				}
				for _, typ := range made {
					name := detector(typ)
					if name == "" {
						continue
					}
					k := dir + " " + name
					built[k] = true
					if detectorAllowed[k] == "" {
						t.Errorf("%s: builds a core.%s; classify through core.Classifier, or add %q to detectorAllowed with the reason",
							mod.fset.Position(n.Pos()), name, k)
					}
				}
				return true
			})
		}
	}
	for k := range detectorAllowed {
		if !built[k] {
			t.Errorf("detectorAllowed names %s, which builds no such detector now: drop it", k)
		}
	}
}

// cfgAllowed are the config fields TestEveryConfigFieldHasASetter lets
// stand without a setter, each with the reason.
var cfgAllowed = map[string]string{
	"internal/cluster.MembershipConfig.Now": "test seam: the membership tests drive a fake clock",
	"internal/cluster.RouterConfig.Client":  "test seam: the router and gateway tests swap in a fake transport",
	"internal/cluster.GatewayConfig.Router": "test seam: carries RouterConfig.Client into a gateway under test",
	"internal/vstore.Config.CompactBytes":   "test seam: the store tests reach compaction without writing 8 MiB",
	"internal/serve.Config.Workers":         "test seam: the serve and cluster tests pin the batch width, so alloc counts and admission do not follow the machine's GOMAXPROCS",
	"internal/serve.Config.CacheSize":       "test seam: the serve tests reach eviction with caches of 2 to 64 entries",
	"internal/watch.EngineConfig.Workers":   "test seam: the engine tests run a 2- and 4-wide pool, so alerts in event order are exercised on a one-core machine too",
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

// flagAllowed are the flags TestEveryFlagHasASetter lets stand without
// a run that passes them, each with the reason. A key is "binary -flag",
// or "binary subcommand -flag".
var flagAllowed = map[string]string{
	"idngateway -node":    "deployment setting: the gateway's name in its health bodies and /metrics",
	"idnserve -advertise": "deployment setting: the address the gateway routes to when it is not the bound one (NAT, a container's published port)",
	"idnwatch -cursor":    "deployment setting: the cursor file's path when it does not live beside the alert log",
	"idnwatch -from":      "deployment setting: the resume cursor a replay consumer saved from its last run",
}

// flagDefiners are the flag package's functions and *FlagSet methods
// that register a flag; the ones ending in Var take the name second.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

// TestEveryFlagHasASetter is TestEveryConfigFieldHasASetter at the
// binaries' door: every flag a cmd/ binary or subcommand registers —
// itself, or through a helper under internal/ it calls — is passed to
// that binary by a run someone makes: a smoke drill, a cmd/ test,
// bench/e2e, bench/run.sh, the Makefile or CI. A flag no run passes is
// a configuration no test covers: it becomes GOMAXPROCS, a constant, or
// goes, unless flagAllowed names it as a deployment setting.
//
// A run is read from its literals: in a call or a []string literal, a
// string naming a binary (or a call such as tool("idnserve") given one)
// is followed by an optional subcommand and the "-flag" strings passed
// to it; in a cmd/ test the binary is the package's own. In the
// Makefile, CI and shell files the same is read from each line's words.
func TestEveryFlagHasASetter(t *testing.T) {
	mod, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	// definer returns the flag name a call registers and whether it
	// registers on a *FlagSet rather than the command line.
	definer := func(p *modulePkg, call *ast.CallExpr) (name string, set, ok bool) {
		sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !isSel {
			return "", false, false
		}
		fn, isFn := p.info.Uses[sel.Sel].(*types.Func)
		if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "flag" || !flagDefiners[fn.Name()] {
			return "", false, false
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv != nil && types.TypeString(recv.Type(), nil) != "*flag.FlagSet" {
			return "", false, false // a flag.Value's String, say
		}
		arg := 0
		if strings.HasSuffix(fn.Name(), "Var") {
			arg = 1
		}
		v := p.info.Types[call.Args[arg]].Value
		if v == nil || v.Kind() != constant.String {
			t.Errorf("%s: flag name is not a constant", mod.fset.Position(call.Pos()))
			return "", false, false
		}
		return constant.StringVal(v), recv != nil, true
	}

	// Flags the helpers under internal/ register on the command line, by
	// function; a cmd/ binary that calls one registers them.
	helpers := make(map[string][]string)
	for _, p := range mod.pkgs {
		if !strings.HasPrefix(p.path, module+"internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv != nil || fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if name, set, ok := definer(p, call); ok && !set {
							k := p.path + "." + fd.Name.Name
							helpers[k] = append(helpers[k], name)
						}
					}
					return true
				})
			}
		}
	}

	// registered maps "binary [subcommand] -flag" to where it is
	// registered; subs is each binary's subcommands, from the names its
	// flag.NewFlagSet calls give (the last word: "idnstat train").
	registered := make(map[string]token.Position)
	subs := make(map[string]map[string]bool)
	for _, p := range mod.pkgs {
		bin, ok := strings.CutPrefix(p.path, module+"cmd/")
		if !ok {
			continue
		}
		subs[bin] = make(map[string]bool)
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				sub := ""
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if fn, ok := p.info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "flag" && fn.Name() == "NewFlagSet" {
						if v := p.info.Types[call.Args[0]].Value; v != nil && v.Kind() == constant.String {
							words := strings.Fields(constant.StringVal(v))
							sub = words[len(words)-1]
							subs[bin][sub] = true
						}
					}
					return true
				})
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					var names []string
					set := false
					if name, onSet, ok := definer(p, call); ok {
						names, set = []string{name}, onSet
					} else if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
						if fn, ok := p.info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
							names = helpers[fn.Pkg().Path()+"."+fn.Name()]
						}
					}
					for _, name := range names {
						k := bin + " -" + name
						if set {
							if sub == "" {
								t.Errorf("%s: flag -%s registered on a FlagSet whose subcommand is not named in this function",
									mod.fset.Position(call.Pos()), name)
							}
							k = bin + " " + sub + " -" + name
						}
						registered[k] = mod.fset.Position(call.Pos())
					}
					return true
				})
			}
		}
	}

	// passed records the flags one run's words pass: a binary's name
	// (or a path ending in cmd/<name>), an optional subcommand, flags.
	passed := make(map[string]bool)
	binary := func(word string) string {
		for bin := range subs {
			if word == bin || strings.HasSuffix(word, "cmd/"+bin) {
				return bin
			}
		}
		return ""
	}
	run := func(bin string, words []string) {
		sub := ""
		for i, w := range words {
			if b := binary(w); b != "" {
				bin, sub = b, ""
				if i+1 < len(words) && subs[b][words[i+1]] {
					sub = words[i+1]
				}
				continue
			}
			if bin == "" || !strings.HasPrefix(w, "-") {
				continue
			}
			name, _, _ := strings.Cut(strings.TrimLeft(w, "-"), "=")
			if sub != "" {
				passed[bin+" "+sub+" -"+name] = true
			} else {
				passed[bin+" -"+name] = true
			}
		}
	}
	literal := func(x ast.Expr) string {
		if lit, ok := x.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			s, _ := strconv.Unquote(lit.Value)
			return s
		}
		return ""
	}
	goRuns := func(pattern, bin string) {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		for _, path := range paths {
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(file, func(n ast.Node) bool {
				var args []ast.Expr
				switch n := n.(type) {
				case *ast.CallExpr:
					args = n.Args
				case *ast.CompositeLit:
					args = n.Elts
				default:
					return true
				}
				words := make([]string, len(args))
				for i, a := range args {
					words[i] = literal(a)
					if call, ok := a.(*ast.CallExpr); ok {
						for _, ca := range call.Args {
							if b := binary(literal(ca)); b != "" {
								words[i] = b
							}
						}
					}
				}
				run(bin, words)
				return true
			})
		}
	}
	for bin := range subs {
		goRuns("../../cmd/"+bin+"/*_test.go", bin)
	}
	goRuns("../../internal/smoke/*_test.go", "")
	goRuns("../../bench/e2e/*.go", "")
	ci, err := filepath.Glob("../../.github/workflows/*.yml")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(ci, "../../Makefile", "../../bench/run.sh") {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(text), "\n") {
			run("", strings.Fields(line))
		}
	}

	var unpassed []string
	for k, pos := range registered {
		switch {
		case passed[k] && flagAllowed[k] != "":
			t.Errorf("%s is allowed without a run but one passes it now: drop it from flagAllowed", k)
		case !passed[k] && flagAllowed[k] == "":
			unpassed = append(unpassed, fmt.Sprintf("%s: %s", pos, k))
		}
	}
	for k := range flagAllowed {
		if _, ok := registered[k]; !ok {
			t.Errorf("flagAllowed names %s, which is not a registered flag", k)
		}
	}
	sort.Strings(unpassed)
	for _, u := range unpassed {
		t.Errorf("%s: no smoke drill, cmd/ test, bench/e2e, bench/run.sh, Makefile or CI run passes it: make it GOMAXPROCS or a constant, drop it, or add a run that passes it", u)
	}
	t.Logf("%d flags registered", len(registered))
}
