package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// HotAlloc proves //dflint:hotpath-marked functions allocation-free.
//
// The marked functions are the per-message kernel inner loops — codec
// Enc/Dec primitives, page-diff apply/merge, the UDP batching flush —
// where one heap allocation per call turns into megabytes per second of
// garbage at the paper's message rates and shows up directly in the
// null-latency and bandwidth figures. The rule walks the program call
// graph from each marked root and flags, in every reachable function
// with a body, the allocation shapes the gc compiler cannot elide:
//
//   - make, new, &composite, and slice/map composite literals
//   - append whose base slice is not caller-provided: append into a
//     buffer the caller owns (e.B = append(e.B, ...), dst = append(dst,
//     ...)) is the amortized idiom and allowed; append onto a fresh
//     local backing array allocates on the hot path itself
//   - boxing a non-pointer value into an interface (call arguments,
//     returns, assignments); constants are exempt (the runtime interns
//     small ones, and constant boxes are loop-invariant)
//   - string<->[]byte conversions, which copy
//   - closures and go statements
//   - calls into stdlib packages known to allocate (fmt, reflect, sort,
//     strings, strconv); other bodiless callees are trusted
//
// Dynamic calls (interface methods, function values) are trusted: the
// seam's indirections are bound to implementations the graph cannot
// see, and flagging every indirect call would bury the signal. panic
// arguments are the cold path and exempt.
var HotAlloc = &ProgramAnalyzer{
	Name: "hotalloc",
	Doc: "prove //dflint:hotpath functions (codec primitives, diff apply/merge, batch " +
		"flush) allocation-free across the whole call graph",
	Run: runHotAlloc,
}

// allocStdlib is the deny-list of bodiless callees: stdlib packages a
// hot path must not enter because their common entry points allocate.
var allocStdlib = map[string]bool{
	"fmt":     true,
	"reflect": true,
	"sort":    true,
	"strings": true,
	"strconv": true,
}

func runHotAlloc(pass *ProgramPass) {
	cg := pass.Program.CallGraph()

	var roots []*types.Func
	for obj, node := range cg.Funcs {
		if funcAnnotated(node.Decl, "//dflint:hotpath") {
			roots = append(roots, obj)
		}
	}
	if len(roots) == 0 {
		return
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Name() < roots[j].Name() })

	// Attribute each reachable function to the first root (by name)
	// that reaches it, so diagnostics name a deterministic route.
	owner := make(map[*types.Func]*types.Func)
	for _, r := range roots {
		for f := range cg.Reachable([]*types.Func{r}) {
			if _, claimed := owner[f]; !claimed {
				owner[f] = r
			}
		}
	}

	for f, root := range owner {
		node := cg.Node(f)
		if node == nil {
			continue
		}
		scanHotAllocs(pass, node, root)
	}
}

// scanHotAllocs reports the allocation sites in one function body.
func scanHotAllocs(pass *ProgramPass, node *FuncNode, root *types.Func) {
	info := node.Unit.Info
	caller := callerRootedObjs(node, info)
	report := func(pos ast.Node, what string) {
		pass.Reportf(pos.Pos(),
			"hot path (via //dflint:hotpath %s) allocates: %s; hot-path code must reuse caller-provided buffers",
			root.Name(), what)
	}
	sig := node.Obj.Type().(*types.Signature)

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n, "a closure captures its environment on the heap")
			return false
		case *ast.GoStmt:
			report(n, "go spawns a goroutine (stack + descriptor)")
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n, "&composite literal escapes to the heap")
					return false
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					report(n, "slice/map composite literal allocates its backing store")
				}
			}
		case *ast.ReturnStmt:
			res := sig.Results()
			if len(n.Results) == res.Len() {
				for i, r := range n.Results {
					if boxesInto(info, r, res.At(i).Type()) {
						report(r, "returning a concrete value as "+res.At(i).Type().String()+" boxes it")
					}
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if lt, ok := info.Types[lhs]; ok && boxesInto(info, n.Rhs[i], lt.Type) {
						report(n.Rhs[i], "assigning a concrete value into an interface boxes it")
					}
				}
			}
		case *ast.CallExpr:
			if name := builtinName(info, n); name != "" {
				switch name {
				case "panic":
					return false // cold path
				case "make", "new":
					report(n, name+" allocates")
					return true
				case "append":
					if len(n.Args) > 0 && !caller.rooted(n.Args[0]) {
						report(n, "append onto a slice the caller does not own may grow a fresh backing array")
					}
					return true
				}
				return true
			}
			if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
				// Conversion: string <-> []byte/[]rune copies.
				if convCopies(tv.Type, info, n) {
					report(n, "string/[]byte conversion copies")
				}
				return true
			}
			callee := StaticCallee(info, n)
			if callee != nil {
				if callee.Pkg() != nil && allocStdlib[callee.Pkg().Path()] {
					report(n, callee.Pkg().Path()+"."+callee.Name()+" allocates")
				}
				// Boxing at the call boundary.
				if csig, ok := callee.Type().(*types.Signature); ok {
					checkCallBoxing(info, n, csig, report)
				}
			}
		}
		return true
	}
	ast.Inspect(node.Decl.Body, walk)
}

// checkCallBoxing reports arguments boxed into interface parameters.
func checkCallBoxing(info *types.Info, call *ast.CallExpr, sig *types.Signature, report func(ast.Node, string)) {
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				return // spread: no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			return
		}
		if boxesInto(info, arg, pt) {
			report(arg, "passing a concrete value as "+pt.String()+" boxes it")
		}
	}
}

// boxesInto reports whether storing expr into a destination of type dst
// allocates an interface box: dst is an interface, the value is a
// concrete non-pointer-shaped type, and it is not a constant.
func boxesInto(info *types.Info, expr ast.Expr, dst types.Type) bool {
	if dst == nil {
		return false
	}
	if _, iface := dst.Underlying().(*types.Interface); !iface {
		return false
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil || tv.Value != nil {
		return false
	}
	switch u := tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Chan, *types.Map, *types.Signature:
		return false // pointer-shaped: stored directly in the iface word
	case *types.Basic:
		return u.Info()&types.IsUntyped == 0
	}
	return true // struct, array, slice, string headers all spill to the heap
}

// convCopies reports whether the conversion call copies its operand:
// string <-> []byte / []rune.
func convCopies(target types.Type, info *types.Info, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok {
		return false
	}
	return (isStringType(target) && isByteSliceType(tv.Type)) ||
		(isByteSliceType(target) && isStringType(tv.Type))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSliceType(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}

// builtinName resolves call's callee to a builtin's name, or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// callerRooted tracks which expressions alias storage the caller
// provided: parameters, the receiver, and locals assigned from them.
// Appending into caller-rooted storage is the amortized idiom the hot
// paths are built on; appending anywhere else allocates here.
type callerRooted struct {
	info *types.Info
	objs map[types.Object]bool
}

func callerRootedObjs(node *FuncNode, info *types.Info) *callerRooted {
	c := &callerRooted{info: info, objs: make(map[types.Object]bool)}
	sig := node.Obj.Type().(*types.Signature)
	if r := sig.Recv(); r != nil {
		c.objs[r] = true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		c.objs[sig.Params().At(i)] = true
	}
	// Receiver/param objects in the signature are the same *types.Var
	// the body's identifiers resolve to, so no extra mapping is needed.
	// Fixed point: locals aliased from caller-rooted storage join it.
	for changed := true; changed; {
		changed = false
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok || len(assign.Lhs) != len(assign.Rhs) {
				return true
			}
			for i, lhs := range assign.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" || !c.rooted(assign.Rhs[i]) {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil && !c.objs[obj] {
					c.objs[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return c
}

// rooted reports whether e aliases caller-provided storage.
func (c *callerRooted) rooted(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := c.info.Uses[e]; obj != nil {
			return c.objs[obj]
		}
	case *ast.SelectorExpr:
		return c.rooted(e.X)
	case *ast.IndexExpr:
		return c.rooted(e.X)
	case *ast.SliceExpr:
		return c.rooted(e.X)
	case *ast.StarExpr:
		return c.rooted(e.X)
	case *ast.CallExpr:
		if builtinName(c.info, e) == "append" && len(e.Args) > 0 {
			return c.rooted(e.Args[0])
		}
	}
	return false
}
