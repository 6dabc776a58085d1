package clockwork_test

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/doc"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/api.txt from the current source")

// surfacePackages are the module's public packages, by directory.
var surfacePackages = []string{".", "serve", "serve/stream", "journal", "trace", "workload", "experiments"}

// TestPublicSurface pins the exported declarations of every public
// package in testdata/api.txt: signatures, types and values, no doc
// text. Any drift fails until the file is rewritten with
//
//	go test . -run TestPublicSurface -update
//
// so a change to the surface shows up as a diff of that file.
func TestPublicSurface(t *testing.T) {
	var b bytes.Buffer
	for _, dir := range surfacePackages {
		renderSurface(t, &b, dir)
	}
	const golden = "testdata/api.txt"
	if *update {
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("the public surface drifted from %s (rewrite it with -update and review the diff):\n%s", golden, firstDiff(string(want), got))
	}
}

// parseSurface parses the non-test files of the package in dir, without
// comments (no doc text), and returns its exported declarations plus
// the import path behind each import name its files use.
func parseSurface(t *testing.T, fset *token.FileSet, dir string) (*doc.Package, map[string]string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	imports := make(map[string]string)
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(ip)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = ip
		}
	}
	pkg, err := doc.NewFromFiles(fset, files, path.Join("clockwork", filepath.ToSlash(dir)))
	if err != nil {
		t.Fatal(err)
	}
	return pkg, imports
}

// renderSurface appends the exported declarations of the package in dir.
// An alias of a type in a module-internal package is followed by that
// type's exported fields and methods, so the public names pin the
// shape they expose and not only the target's name.
func renderSurface(t *testing.T, b *bytes.Buffer, dir string) {
	t.Helper()
	fset := token.NewFileSet()
	pkg, imports := parseSurface(t, fset, dir)
	internal := make(map[string]*doc.Package)
	decl := func(n ast.Node) {
		if f, ok := n.(*ast.FuncDecl); ok {
			f.Body = nil
		}
		var out bytes.Buffer
		if err := format.Node(&out, fset, n); err != nil {
			t.Fatal(err)
		}
		// The stripped doc comments leave blank lines behind; drop them
		// and format again so the columns realign.
		var lines []string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.TrimSpace(line) != "" {
				lines = append(lines, line)
			}
		}
		src, err := format.Source([]byte(strings.Join(lines, "\n")))
		if err != nil {
			t.Fatal(err)
		}
		b.Write(src)
		b.WriteString("\n")
	}
	values := func(vs []*doc.Value) {
		for _, v := range vs {
			decl(v.Decl)
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			decl(f.Decl)
		}
	}
	b.WriteString("package " + filepath.ToSlash(filepath.Join("clockwork", dir)) + "\n\n")
	values(pkg.Consts)
	values(pkg.Vars)
	funcs(pkg.Funcs)
	for _, typ := range pkg.Types {
		b.WriteString("\n")
		decl(typ.Decl)
		values(typ.Consts)
		values(typ.Vars)
		funcs(typ.Funcs)
		funcs(typ.Methods)
		spec := typ.Decl.Specs[0].(*ast.TypeSpec)
		sel, ok := spec.Type.(*ast.SelectorExpr)
		if !spec.Assign.IsValid() || !ok {
			continue
		}
		ip := imports[sel.X.(*ast.Ident).Name]
		if !strings.HasPrefix(ip, "clockwork/internal/") {
			continue
		}
		target := internal[ip]
		if target == nil {
			target, _ = parseSurface(t, fset, strings.TrimPrefix(ip, "clockwork/"))
			internal[ip] = target
		}
		for _, tt := range target.Types {
			if tt.Name == sel.Sel.Name {
				fmt.Fprintf(b, "// %s.%s:\n", sel.X.(*ast.Ident).Name, tt.Name)
				decl(tt.Decl)
				funcs(tt.Methods)
			}
		}
	}
	b.WriteString("\n")
}

// TestPublicAPIBoundary: cmd/ and examples/ compile against the public
// surface alone (clockwork, clockwork/workload, …) — never against
// clockwork/internal/... . What they need, a caller outside the module
// needs too. The one exception is the clockwork command, whose whole
// content is the experiment catalogue: it imports
// clockwork/internal/experiments, which no caller outside the module
// drives.
func TestPublicAPIBoundary(t *testing.T) {
	allowed := map[string]string{filepath.Join("cmd", "clockwork", "main.go"): "clockwork/internal/experiments"}
	fset := token.NewFileSet()
	for _, root := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(p, "clockwork/internal/") && allowed[path] != p {
					t.Errorf("%s imports %s: cmd/ and examples/ must use the public API", fset.Position(imp.Pos()), p)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPackageComments: every package carries a package comment (a doc
// comment directly above some file's package clause — doc.go by
// convention), so `go doc` tells the request-lifecycle story end to end
// (see ARCHITECTURE.md). go vet catches malformed doc directives; this
// catches absent docs.
func TestPackageComments(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); dir != "." && err == nil {
			return filepath.SkipDir // another module (bench/)
		}
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			return err
		}
		found, documented := false, false
		for _, p := range paths {
			if strings.HasSuffix(p, "_test.go") {
				continue
			}
			found = true
			f, err := parser.ParseFile(fset, p, nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				return err
			}
			if f.Doc != nil {
				documented = true
				break
			}
		}
		if found && !documented {
			t.Errorf("package %s has no package comment", filepath.ToSlash(dir))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// firstDiff shows the first line where got departs from want.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n want: %s\n  got: %s", i+1, wl, gl)
		}
	}
	return ""
}
