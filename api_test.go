package viewjoin

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update-api", false, "rewrite testdata/api.txt from the package's exported declarations")

const apiPath = "testdata/api.txt"

// TestAPIListing prints every exported declaration of the package, one
// a line — funcs and methods with their signatures, types with their
// exported fields, constants and variables with their types — and
// compares the sorted listing with testdata/api.txt, so a change that
// adds, removes or re-signs a public name shows in its diff. Run with
// -update-api to rewrite the file.
func TestAPIListing(t *testing.T) {
	got := apiListing(t)
	if *updateAPI {
		if err := os.WriteFile(apiPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(apiPath)
	if err != nil {
		t.Fatalf("%v (run with -update-api to create it)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for _, l := range gl {
		if !slices.Contains(wl, l) {
			t.Errorf("the public API gains: %s", l)
		}
	}
	for _, l := range wl {
		if !slices.Contains(gl, l) {
			t.Errorf("the public API loses: %s", l)
		}
	}
	if got != string(want) && !t.Failed() {
		t.Errorf("%s is not in the listing's order; run with -update-api", apiPath)
	}
}

// apiListing renders the package's exported declarations sorted, one a
// line: a struct type as "type T struct" plus one "field T.F type" line
// per exported field.
func apiListing(t *testing.T) string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var lines []string
	render := func(node any) string {
		var b bytes.Buffer
		if err := printer.Fprint(&b, fset, node); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || (d.Recv != nil && !exportedRecv(d.Recv)) {
					continue
				}
				if d.Recv != nil {
					d.Recv.List[0].Names = nil
				}
				d.Doc, d.Body = nil, nil
				lines = append(lines, render(d))
			case *ast.GenDecl:
				var typ ast.Expr // a constant without a type or value repeats the previous one's
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						st, ok := s.Type.(*ast.StructType)
						if !ok {
							s.Doc, s.Comment = nil, nil
							lines = append(lines, render(&ast.GenDecl{Tok: token.TYPE, Specs: []ast.Spec{s}}))
							continue
						}
						lines = append(lines, "type "+s.Name.Name+" struct")
						for _, fd := range st.Fields.List {
							ft := render(fd.Type)
							if len(fd.Names) == 0 {
								lines = append(lines, "field "+s.Name.Name+"."+ft+" (embedded)")
							}
							for _, n := range fd.Names {
								if n.IsExported() {
									lines = append(lines, "field "+s.Name.Name+"."+n.Name+" "+ft)
								}
							}
						}
					case *ast.ValueSpec:
						if s.Type != nil || s.Values != nil {
							typ = s.Type
						}
						for _, n := range s.Names {
							if !n.IsExported() {
								continue
							}
							l := d.Tok.String() + " " + n.Name
							if typ != nil {
								l += " " + render(typ)
							}
							lines = append(lines, l)
						}
					}
				}
			}
		}
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n") + "\n"
}

// exportedRecv reports whether a method's receiver type is exported.
func exportedRecv(recv *ast.FieldList) bool {
	typ := recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	id, ok := typ.(*ast.Ident)
	return ok && id.IsExported()
}
