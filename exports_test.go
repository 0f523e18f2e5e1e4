package pushpull_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowList names exported methods that exist to satisfy an
// interface (fmt.Stringer, error, core.Durable, core.LogHook,
// json.Marshaler, sort.Interface, ...): the interface is their caller,
// so no identifier in the module need name them.
var exportAllowList = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "MarshalJSON": true,
	"CommitBarrier": true, "Len": true, "Less": true, "Swap": true,
	"LogPush": true, "LogUnpush": true, "LogCommit": true, "LogAbort": true,
	"ServeHTTP": true,
}

// TestNoDeadExports parses every Go file of the module (benchmark/ and
// tests included) and fails on an exported top-level function or
// method declared in a non-test file under internal/ whose name no
// identifier references outside its own declaration. Matching is by
// name, without type information: a name used anywhere counts as a
// use, so the check can miss a dead export but never flags a live one.
func TestNoDeadExports(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{} // identifier name → occurrences module-wide
	type decl struct {
		pos  string
		name string
		own  int // occurrences of name inside the declaration itself
	}
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		if !strings.HasPrefix(path, "internal/") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || (fd.Recv != nil && exportAllowList[fd.Name.Name]) {
				continue
			}
			own := 0
			ast.Inspect(fd, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == fd.Name.Name {
					own++
				}
				return true
			})
			decls = append(decls, decl{pos: fset.Position(fd.Pos()).String(), name: fd.Name.Name, own: own})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, d := range decls {
		if uses[d.name] == d.own {
			dead = append(dead, d.pos+": "+d.name)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Fatalf("%d exported function(s) nothing references — delete them, or allow-list an interface method:\n%s",
			len(dead), strings.Join(dead, "\n"))
	}
}
