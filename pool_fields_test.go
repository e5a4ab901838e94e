package viewjoin

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoStructHoldsAPool keeps evaluation scratch per concurrent run: no
// non-test Go file of the root package or under internal/engine may
// declare a struct field of type sync.Pool (or *sync.Pool). A pool on a
// plan multiplies sync.Pool's per-P misses by the number of plans and
// keeps a full-result run's scratch as long as the plan lives; the
// engines and the executor keep one package-level pool each instead.
// scripts/ci.sh runs this test as its own step.
func TestNoStructHoldsAPool(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(filepath.Join("internal", "engine"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				typ := field.Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if sel, ok := typ.(*ast.SelectorExpr); ok && sel.Sel.Name == "Pool" {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "sync" {
						t.Errorf("%s: a struct field holds a sync.Pool; keep scratch in a package-level pool", fset.Position(field.Pos()))
					}
				}
			}
			return true
		})
	}
	if checked < 10 {
		t.Fatalf("checked %d files: the walk did not find the sources", checked)
	}
}
