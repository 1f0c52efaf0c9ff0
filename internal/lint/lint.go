// Package lint is dflint's analysis framework: a small, dependency-free
// core in the shape of golang.org/x/tools/go/analysis (which this module
// deliberately does not depend on) plus the analyzers that machine-check
// the kernel-seam contracts from internal/kernel's documentation and the
// DSM memory-model contracts from internal/check's documentation.
//
// The contracts exist because the same kernel code (dsm, reduce, filament,
// msg, apps) runs under two bindings: the deterministic simulation that
// produces the paper's figures in virtual time, and the real-time UDP
// binding where handlers run under a per-node monitor. Code that reaches
// for time, raw goroutines, sync primitives, map iteration order, or
// blocking calls inside handlers works under one binding and silently
// breaks the other. Doc comments used to be the only enforcement; these
// analyzers make the rules part of `go vet`.
//
// Escape hatch: a comment of the form
//
//	//dflint:allow <rule> <one-line reason>
//
// on the flagged line, or on the line directly above it, suppresses that
// rule there. The reason is mandatory; an allow without one is itself
// reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// An Analyzer describes one dflint check.
type Analyzer struct {
	// Name is the rule name used in diagnostics and //dflint:allow
	// comments.
	Name string
	// Doc is a one-paragraph description of what the rule guards.
	Doc string
	// Run reports the rule's diagnostics for one package.
	Run func(*Pass)
}

// Analyzers returns the full dflint suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		KernelTime,
		KernelSpawn,
		HandlerNoBlock,
		MapRange,
		SharedRange,
		LoopCapture,
		BarrierPhase,
		CodecSym,
		FrameScope,
	}
}

// A Diagnostic is one reported violation, with its position resolved.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	kernel bool
	allows allowIndex
	sink   *[]Diagnostic
}

// Kernel reports whether this package is part of the kernel layer (the
// code written against internal/kernel's seam and shared by both
// bindings). Most rules only apply there.
func (p *Pass) Kernel() bool { return p.kernel }

// Reportf records a diagnostic at pos unless a //dflint:allow comment for
// this analyzer covers the line. An allow comment without a reason is
// converted into its own diagnostic rather than honored silently.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	reportf(p.Fset, p.allows, p.sink, p.Analyzer.Name, pos, format, args...)
}

// kernelPkgPaths are the import paths of the kernel-layer packages: the
// protocol layers plus every application, all of which must run
// identically under the simulation and UDP bindings. New kernel-layer
// packages either extend this list or carry a //dflint:kernel comment in
// any file.
var kernelPkgPaths = map[string]bool{
	"filaments/internal/kernel":   true,
	"filaments/internal/dsm":      true,
	"filaments/internal/reduce":   true,
	"filaments/internal/filament": true,
	"filaments/internal/msg":      true,
	"filaments/internal/obs":      true,
	// The membership state machine is explicit-clock and single-threaded
	// by design; the lint tiers enforce that its impurities stay in
	// cluster/daemon (which matches by exact path, so it is exempt).
	"filaments/internal/cluster": true,
}

const kernelPkgPrefix = "filaments/internal/apps/"

// isKernelPackage classifies a package as kernel-layer by import path or
// by an explicit //dflint:kernel marker comment (used by fixtures and
// available to future packages).
func isKernelPackage(path string, files []*ast.File) bool {
	// Strip go list's test-variant suffix: "pkg [pkg.test]".
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	if kernelPkgPaths[path] || strings.HasPrefix(path, kernelPkgPrefix) {
		return true
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.TrimSpace(c.Text) == "//dflint:kernel" {
					return true
				}
			}
		}
	}
	return false
}

// --- //dflint:allow comment index. ---

type allowEntry struct {
	pos    token.Pos
	reason string
}

// allowIndex maps filename → line → rule → entry. A diagnostic on line L
// is suppressed by an allow on L (trailing comment) or L-1 (comment on
// its own line above).
type allowIndex map[string]map[int]map[string]allowEntry

var allowRE = regexp.MustCompile(`^//dflint:allow\s+([A-Za-z0-9_-]+)\s*(.*)$`)

func buildAllowIndex(fset *token.FileSet, files []*ast.File) allowIndex {
	idx := make(allowIndex)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				p := fset.Position(c.Slash)
				byLine := idx[p.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]allowEntry)
					idx[p.Filename] = byLine
				}
				byRule := byLine[p.Line]
				if byRule == nil {
					byRule = make(map[string]allowEntry)
					byLine[p.Line] = byRule
				}
				byRule[m[1]] = allowEntry{pos: c.Slash, reason: strings.TrimSpace(m[2])}
			}
		}
	}
	return idx
}

func (idx allowIndex) lookup(pos token.Position, rule string) (allowEntry, bool) {
	byLine, ok := idx[pos.Filename]
	if !ok {
		return allowEntry{}, false
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		if e, ok := byLine[line][rule]; ok {
			return e, true
		}
	}
	return allowEntry{}, false
}

// Run applies the analyzers to one type-checked package and returns the
// diagnostics sorted by position. info must have Types, Defs, Uses and
// Selections populated.
func Run(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) []Diagnostic {
	var diags []Diagnostic
	kernel := isKernelPackage(pkg.Path(), files)
	allows := buildAllowIndex(fset, files)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			kernel:   kernel,
			allows:   allows,
			sink:     &diags,
		}
		a.Run(pass)
	}
	// Sort and dedupe: the same file can be analyzed both in a package
	// and in its test variant.
	return sortDedupe(diags)
}

// An Allow is one //dflint:allow escape hatch found in source, for
// dflint's -allowlist audit mode: the hatches are part of the checked
// contract surface, so the full set is kept in a reviewed baseline and
// CI fails when a new one appears without a baseline change.
type Allow struct {
	Pos    token.Position
	Rule   string
	Reason string
}

// CollectAllows extracts every //dflint:allow comment from the files.
func CollectAllows(fset *token.FileSet, files []*ast.File) []Allow {
	var out []Allow
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				out = append(out, Allow{
					Pos:    fset.Position(c.Slash),
					Rule:   m[1],
					Reason: strings.TrimSpace(m[2]),
				})
			}
		}
	}
	return out
}

// NewInfo returns a types.Info with every map the analyzers need.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// --- Shared type-resolution helpers. ---

// useOf resolves a call's callee to the used object: the selected method
// or function for selector calls, the function for plain ident calls.
func useOf(info *types.Info, fun ast.Expr) types.Object {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return info.Uses[f]
	case *ast.SelectorExpr:
		return info.Uses[f.Sel]
	}
	return nil
}

// isPkgObj reports whether obj is the named member of the package with
// the given path. A bare final path element is also accepted, so fixture
// packages ("kernel", "rtnode") match their real counterparts
// ("filaments/internal/kernel", ...).
func isPkgObj(obj types.Object, pkgPath, name string) bool {
	if obj == nil || obj.Pkg() == nil || obj.Name() != name {
		return false
	}
	p := obj.Pkg().Path()
	return p == pkgPath || p == pkgPath[strings.LastIndexByte(pkgPath, '/')+1:]
}

// kernelMethod reports whether the call invokes a method declared by an
// internal/kernel interface (Transport, Thread, Clock, Executor, Node)
// with the given name, and returns the selector if so.
func kernelMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := info.Uses[sel.Sel]
	return isPkgObj(obj, "filaments/internal/kernel", name)
}
