package cluster

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
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
