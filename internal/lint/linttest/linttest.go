// Package linttest runs dflint analyzers over fixture packages and
// checks their diagnostics against expectations written in the fixtures
// themselves, in the style of x/tools' analysistest:
//
//	time.Sleep(0) // want `time\.Sleep in kernel-layer code`
//
// Fixtures live under a source root (testdata/src in the lint package's
// tests) laid out as one directory per import path. Imports resolve
// inside the same tree, so fixtures depend on small fake copies of time,
// sync, kernel, msg, and rtnode rather than on the real
// packages — the analyzers accept a bare final import-path element
// ("kernel") precisely so these hermetic fakes exercise them.
package linttest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"filaments/internal/lint"
)

// wantRE extracts `// want "regexp"` expectations. The capture is used as
// a regular expression verbatim (no string unquoting), so fixtures write
// `\[` for a literal bracket and cannot contain a double quote.
var wantRE = regexp.MustCompile(`// want "([^"]*)"`)

// Run loads the fixture package at srcRoot/pkgPath, applies the
// analyzers, and reports any mismatch between produced diagnostics and
// the fixture's // want expectations as test errors.
func Run(t *testing.T, srcRoot, pkgPath string, analyzers ...*lint.Analyzer) {
	t.Helper()
	l := newLoader(srcRoot)
	pkg, err := l.Import(pkgPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgPath, err)
	}
	files := l.files[pkgPath]
	diags := lint.Run(analyzers, l.fset, files, pkg, l.infos[pkgPath])
	checkWants(t, l, files, diags)
}

// RunProgram loads the fixture packages at srcRoot/pkgPaths[i] into one
// shared Program (a common FileSet and importer, so types.Object
// identities span the packages exactly as under cmd/dflint's standalone
// loader), applies the whole-program analyzers, and checks // want
// expectations across all listed packages.
func RunProgram(t *testing.T, srcRoot string, pkgPaths []string, analyzers ...*lint.ProgramAnalyzer) {
	t.Helper()
	l := newLoader(srcRoot)
	prog := &lint.Program{Fset: l.fset}
	var all []*ast.File
	for _, path := range pkgPaths {
		pkg, err := l.Import(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		prog.Units = append(prog.Units, &lint.Unit{
			Files: l.files[path],
			Pkg:   pkg,
			Info:  l.infos[path],
		})
		all = append(all, l.files[path]...)
	}
	diags := lint.RunProgram(analyzers, prog)
	checkWants(t, l, all, diags)
}

// checkWants matches produced diagnostics against the fixtures'
// // want expectations, reporting both unexpected and missing ones.
func checkWants(t *testing.T, l *loader, files []*ast.File, diags []lint.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := make(map[key][]*want)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want pattern %q: %v", m[1], err)
					}
					pos := l.fset.Position(c.Slash)
					k := key{pos.Filename, pos.Line}
					wants[k] = append(wants[k], &want{re: re})
				}
			}
		}
	}

	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		matched := false
		for _, w := range wants[k] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s: %s [%s]", d.Pos, d.Message, d.Analyzer)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, w.re)
			}
		}
	}
}

// loader type-checks fixture packages, resolving every import path to a
// directory under root.
type loader struct {
	fset  *token.FileSet
	root  string
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	infos map[string]*types.Info
}

func newLoader(root string) *loader {
	return &loader{
		fset:  token.NewFileSet(),
		root:  root,
		pkgs:  make(map[string]*types.Package),
		files: make(map[string][]*ast.File),
		infos: make(map[string]*types.Info),
	}
}

// Import implements types.Importer over the fixture tree; the type
// checker calls it re-entrantly for fixture dependencies.
func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := lint.NewInfo()
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	l.files[path] = files
	l.infos[path] = info
	return pkg, nil
}
