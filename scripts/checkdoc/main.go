// Command checkdoc enforces the repo's documentation bar. Two checks:
//
//  1. Every package must carry a package-level doc comment (godoc). It
//     walks the module tree, parsing only package clauses and their
//     comments (no type checking, so it is fast and dependency-free).
//  2. The user-facing library packages (internal/frontend, internal/gen,
//     internal/search, internal/stage) must document every exported
//     identifier — these are the packages the manual points new users
//     at, so an undocumented export there is a doc regression, not a
//     style nit.
//
// Run from the repo root, typically via scripts/verify.sh:
//
//	go run ./scripts/checkdoc
//
// Exit status: 0 when every check passes, 1 otherwise.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// strictDirs lists the package directories where every exported
// identifier (and exported struct field) must carry a doc comment.
var strictDirs = []string{
	"internal/frontend",
	"internal/gen",
	"internal/logic",
	"internal/memo",
	"internal/search",
	"internal/stage",
}

func main() {
	missing, err := scan(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "checkdoc:", err)
		os.Exit(1)
	}
	fail := false
	if len(missing) > 0 {
		fail = true
		fmt.Fprintln(os.Stderr, "checkdoc: packages missing a package doc comment:")
		for _, dir := range missing {
			fmt.Fprintf(os.Stderr, "  %s\n", dir)
		}
	}
	var undocumented []string
	for _, dir := range strictDirs {
		u, err := scanExported(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "checkdoc:", err)
			os.Exit(1)
		}
		undocumented = append(undocumented, u...)
	}
	if len(undocumented) > 0 {
		fail = true
		fmt.Fprintln(os.Stderr, "checkdoc: exported identifiers missing doc comments:")
		for _, id := range undocumented {
			fmt.Fprintf(os.Stderr, "  %s\n", id)
		}
	}
	if fail {
		os.Exit(1)
	}
	fmt.Println("checkdoc: all packages documented")
}

// scan returns the directories under root containing a Go package none of
// whose files has a package doc comment. Test-only packages (everything
// in *_test.go files) are exempt: their doc surface is the package under
// test.
func scan(root string) ([]string, error) {
	// dir -> has any non-test Go file / has a package doc comment
	type state struct{ hasGo, hasDoc bool }
	dirs := map[string]*state{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, perr := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if perr != nil {
			return fmt.Errorf("%s: %w", path, perr)
		}
		dir := filepath.Dir(path)
		st := dirs[dir]
		if st == nil {
			st = &state{}
			dirs[dir] = st
		}
		st.hasGo = true
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			st.hasDoc = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var missing []string
	for dir, st := range dirs {
		if st.hasGo && !st.hasDoc {
			missing = append(missing, dir)
		}
	}
	sort.Strings(missing)
	return missing, nil
}

// scanExported returns "dir: Name" entries for every exported top-level
// identifier in dir's non-test files that lacks a doc comment. Grouped
// const/var specs count as documented when the group declaration carries
// one; exported fields of exported structs are checked too, since the
// strict packages' types are part of the documented API surface.
func scanExported(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	report := func(name string) { out = append(out, dir+": "+name) }
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil && !exportedRecv(d.Recv) {
					continue // method on an unexported type
				}
				if d.Name.IsExported() && d.Doc == nil {
					report(d.Name.Name)
				}
			case *ast.GenDecl:
				groupDoc := d.Doc != nil
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if !sp.Name.IsExported() {
							continue
						}
						if sp.Doc == nil && !groupDoc {
							report(sp.Name.Name)
						}
						for _, field := range undocFields(sp) {
							report(sp.Name.Name + "." + field)
						}
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							if n.IsExported() && sp.Doc == nil && sp.Comment == nil && !groupDoc {
								report(n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// undocFields lists the exported struct fields of sp that carry neither a
// doc comment nor a trailing line comment.
func undocFields(sp *ast.TypeSpec) []string {
	st, ok := sp.Type.(*ast.StructType)
	if !ok {
		return nil
	}
	var out []string
	for _, field := range st.Fields.List {
		for _, n := range field.Names {
			if n.IsExported() && field.Doc == nil && field.Comment == nil {
				out = append(out, n.Name)
			}
		}
	}
	return out
}

// exportedRecv reports whether a method receiver names an exported type.
func exportedRecv(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true // unusual receiver: err on the side of checking
		}
	}
}
