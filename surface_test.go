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
	"os"
	"path/filepath"
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

// renderSurface appends the exported declarations of the package in dir.
func renderSurface(t *testing.T, b *bytes.Buffer, dir string) {
	t.Helper()
	fset := token.NewFileSet()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, 0) // no comments: no doc text
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, "clockwork/"+dir)
	if err != nil {
		t.Fatal(err)
	}
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
	}
	b.WriteString("\n")
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
