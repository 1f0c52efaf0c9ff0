package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// TagSpace owns the wire-tag namespace. The binary codec registry
// (rtnode.RegisterWireCodec) is written to by ten call sites across six
// packages, each claiming a small numeric tag; the runtime panics on a
// collision, but only when both packages happen to be linked into the
// same process — a daemon-only tag can silently collide with a
// bench-only tag for months. This analyzer sees the whole module at
// once:
//
//   - duplicate tags: two production registrations (tags below the
//     0x7F00 test base) claiming one tag for different types is an
//     error at the second site, whether or not any binary links both;
//
//   - codec coverage: a module-defined struct type that reaches the
//     wire — the payload of Transport.Call, Send, RequestAsync, or
//     RequestSized, of msg.Endpoint.Send or Broadcast, or the reply a
//     kernel service handler returns — must have a registered binary
//     codec. Without one the simulation binding, which passes payloads
//     by reference, works perfectly, and the UDP binding's encoder
//     panics on the first real message.
//
// The third guarantee, wire-format *stability*, lives in the WIRE.lock
// manifest (WireTags/FormatWireLock/DiffWireLock, driven by
// cmd/dflint): tag → payload type → labeled field sequence, extracted
// from each registered encoder by codecsym's symbolic executor. CI
// diffs the checked-in manifest against the source of truth, so
// renumbering a tag or reordering two same-width fields — changes that
// type-check, pass every single-version test, and corrupt every
// mixed-version cluster — fail loudly. Regenerate deliberately with
// `dflint -fix-wirelock` after a reviewed protocol change.
var TagSpace = &ProgramAnalyzer{
	Name: "tagspace",
	Doc: "whole-module wire-tag map: no duplicate tags, every payload and handler " +
		"reply type reaches a registered binary codec, WIRE.lock drift detection",
	Run: runTagSpace,
}

// TagTestBase mirrors rtnode.TagTestBase: tags at or above it are
// per-test scratch space, excluded from the namespace checks and the
// manifest.
const tagTestBase = 0x7F00

// A wireReg is one RegisterWireCodec call site.
type wireReg struct {
	unit     *Unit
	call     *ast.CallExpr
	tag      uint64
	tagKnown bool
	typeKey  string // payload type, package-qualified
	pos      token.Position
	testFile bool
}

// collectWireRegs finds every RegisterWireCodec call in the
// program, deduplicated by position (test variants re-load files).
func collectWireRegs(prog *Program) []wireReg {
	var regs []wireReg
	seen := make(map[string]bool)
	for _, u := range prog.Units {
		for _, f := range u.Files {
			unit := u
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				obj := useOf(unit.Info, call.Fun)
				if !isPkgObj(obj, "filaments/internal/rtnode", "RegisterWireCodec") || len(call.Args) != 4 {
					return true
				}
				pos := prog.Fset.Position(call.Pos())
				key := pos.String()
				if seen[key] {
					return true
				}
				seen[key] = true
				reg := wireReg{
					unit:     unit,
					call:     call,
					pos:      pos,
					testFile: strings.HasSuffix(pos.Filename, "_test.go"),
					typeKey:  payloadTypeKey(unit.Info, call.Args[0]),
				}
				if tv, ok := unit.Info.Types[call.Args[1]]; ok && tv.Value != nil {
					if v, exact := constant.Uint64Val(constant.ToInt(tv.Value)); exact {
						reg.tag = v
						reg.tagKnown = true
					}
				}
				regs = append(regs, reg)
				return true
			})
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].tag != regs[j].tag {
			return regs[i].tag < regs[j].tag
		}
		return regs[i].pos.String() < regs[j].pos.String()
	})
	return regs
}

// payloadTypeKey renders the static type of a payload or prototype
// expression as a stable, package-qualified key ("dsm.pageData",
// "[][]float64"). Pointers are dereferenced: codecs encode the value.
func payloadTypeKey(info *types.Info, e ast.Expr) string {
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || tv.Type == nil {
		return "?"
	}
	return typeKeyOf(tv.Type)
}

func typeKeyOf(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

func runTagSpace(pass *ProgramPass) {
	regs := collectWireRegs(pass.Program)

	// Duplicate production tags. The registry panics at runtime, but
	// only a whole-module view catches tags claimed by packages no
	// binary links together yet.
	first := make(map[uint64]wireReg)
	for _, r := range regs {
		if !r.tagKnown || r.tag >= tagTestBase {
			continue
		}
		prev, dup := first[r.tag]
		if !dup {
			first[r.tag] = r
			continue
		}
		if prev.typeKey != r.typeKey {
			pass.Reportf(r.call.Args[1].Pos(),
				"wire tag %d is already registered for %s at %s — claim a fresh tag (see the tag map: dflint -tags)",
				r.tag, prev.typeKey, prev.pos)
		}
	}

	// Codec coverage for everything that reaches the wire.
	registered := make(map[string]bool)
	for _, r := range regs {
		registered[r.typeKey] = true
	}
	for _, u := range pass.Program.Units {
		for _, f := range u.Files {
			unit := u
			check := func(arg ast.Expr, how string) {
				t, name := modulePayloadStruct(unit.Info, arg)
				if t != "" && !registered[t] {
					pass.Reportf(arg.Pos(),
						"%s type %s reaches the wire with no registered binary codec: add a RegisterWireCodec for it or //dflint:allow tagspace",
						how, name)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if arg, ok := wirePayloadArg(unit.Info, n); ok {
						check(arg, "payload")
					}
				case *ast.FuncDecl:
					if n.Body != nil && isHandlerSig(unit.Info.Defs[n.Name]) {
						checkHandlerReplies(n.Body, check)
					}
				case *ast.FuncLit:
					if tv, ok := unit.Info.Types[n]; ok && handlerSigType(tv.Type) {
						checkHandlerReplies(n.Body, check)
					}
				}
				return true
			})
		}
	}
}

// wirePayloadArg returns the payload argument of a call that puts a
// value on the wire: a kernel Transport call (Call, Send, RequestAsync,
// RequestSized), matched by method name plus an `any`-typed parameter at
// the known position so unrelated Send methods don't match, or
// msg.Endpoint.Send/Broadcast.
func wirePayloadArg(info *types.Info, call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil, false
	}
	idx, known := map[string]int{
		"Call":         3,
		"Send":         1,
		"RequestAsync": 2,
		"RequestSized": 2,
	}[sel.Sel.Name]
	switch {
	case isPkgObj(fn, "filaments/internal/msg", "Send"):
		idx, known = 2, true
	case isPkgObj(fn, "filaments/internal/msg", "Broadcast"):
		idx, known = 1, true
	}
	if !known {
		return nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() <= idx || len(call.Args) <= idx {
		return nil, false
	}
	iface, ok := sig.Params().At(idx).Type().Underlying().(*types.Interface)
	if !ok || !iface.Empty() {
		return nil, false
	}
	return call.Args[idx], true
}

// modulePayloadStruct resolves arg's static type to a module-declared
// named struct type; other payloads (basic values, foreign types,
// already-interface forwards) are outside this rule.
func modulePayloadStruct(info *types.Info, arg ast.Expr) (key, name string) {
	tv, ok := info.Types[ast.Unparen(arg)]
	if !ok || tv.Type == nil {
		return "", ""
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", ""
	}
	path := obj.Pkg().Path()
	if !strings.HasPrefix(path, "filaments/") && strings.Contains(path, "/") {
		return "", ""
	}
	if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
		return "", ""
	}
	return typeKeyOf(named), obj.Pkg().Name() + "." + obj.Name()
}

// --- The WIRE.lock manifest. ---

// A WireTag is one row of the wire-format manifest: a production tag,
// its payload type, and the labeled field sequence its encoder writes.
type WireTag struct {
	Tag   uint64
	Type  string
	Shape string
}

// WireTags extracts the manifest rows from the program: every
// production (non-test) registration below the test base, in tag order.
func WireTags(prog *Program) []WireTag {
	var out []WireTag
	for _, r := range collectWireRegs(prog) {
		if !r.tagKnown || r.tag >= tagTestBase || r.testFile {
			continue
		}
		x := &shapeExtractor{
			info:   r.unit.Info,
			decls:  funcDecls(r.unit.Files, r.unit.Info),
			labels: true,
		}
		shape := x.fromExpr(r.call.Args[2])
		rendered := "(opaque)"
		if !x.opaque {
			rendered = renderShape(shape)
		}
		out = append(out, WireTag{Tag: r.tag, Type: r.typeKey, Shape: rendered})
	}
	return out
}

const wireLockHeader = `# WIRE.lock — the module's wire-format manifest, checked by dflint.
#
# Each row is one registered binary codec: tag, payload type, and the
# field sequence its encoder writes (op:field, × marks repetition,
# ? a conditional segment). Renumbering a tag or reordering fields
# changes a row and fails CI: such a change breaks mixed-version
# clusters and must be made deliberately. After a reviewed protocol
# change, regenerate with:
#
#   go run ./cmd/dflint -fix-wirelock ./...
#
`

// FormatWireLock renders the manifest file content.
func FormatWireLock(tags []WireTag) string {
	var b strings.Builder
	b.WriteString(wireLockHeader)
	for _, t := range tags {
		fmt.Fprintf(&b, "%d\t%s\t%s\n", t.Tag, t.Type, t.Shape)
	}
	return b.String()
}

// parseWireLock reads manifest content back into rows (comments and
// blank lines ignored; malformed lines surface as a synthetic row so
// the diff names them).
func parseWireLock(content string) map[uint64]WireTag {
	rows := make(map[uint64]WireTag)
	for _, line := range strings.Split(content, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.SplitN(line, "\t", 3)
		if len(parts) != 3 {
			continue
		}
		var tag uint64
		if _, err := fmt.Sscanf(parts[0], "%d", &tag); err != nil {
			continue
		}
		rows[tag] = WireTag{Tag: tag, Type: parts[1], Shape: parts[2]}
	}
	return rows
}

// DiffWireLock compares checked-in manifest content against the
// program's current wire tags and describes every divergence. An empty
// result means the wire format is unchanged.
func DiffWireLock(checkedIn string, current []WireTag) []string {
	old := parseWireLock(checkedIn)
	cur := make(map[uint64]WireTag, len(current))
	var diffs []string
	for _, t := range current {
		cur[t.Tag] = t
		o, ok := old[t.Tag]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("tag %d (%s) is new — regenerate WIRE.lock to claim it", t.Tag, t.Type))
			continue
		}
		if o.Type != t.Type {
			diffs = append(diffs, fmt.Sprintf("tag %d changed type: %s -> %s (renumbering breaks mixed-version decode)", t.Tag, o.Type, t.Type))
		}
		if o.Shape != t.Shape {
			diffs = append(diffs, fmt.Sprintf("tag %d (%s) changed wire shape: [%s] -> [%s]", t.Tag, t.Type, o.Shape, t.Shape))
		}
	}
	var removed []uint64
	for tag := range old {
		if _, ok := cur[tag]; !ok {
			removed = append(removed, tag)
		}
	}
	sort.Slice(removed, func(i, j int) bool { return removed[i] < removed[j] })
	for _, tag := range removed {
		diffs = append(diffs, fmt.Sprintf("tag %d (%s) disappeared — old peers still send it", tag, old[tag].Type))
	}
	return diffs
}

// isHandlerSig reports whether obj is a function with the kernel.Service
// handler signature func(NodeID, any) (any, int, Verdict).
func isHandlerSig(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	return handlerSigType(fn.Type())
}

func handlerSigType(t types.Type) bool {
	sig, ok := t.(*types.Signature)
	if !ok || sig.Params().Len() != 2 || sig.Results().Len() != 3 {
		return false
	}
	return isKernelType(sig.Params().At(0).Type(), "NodeID") &&
		isKernelType(sig.Results().At(2).Type(), "Verdict")
}

// checkHandlerReplies applies check to the reply operand of every return
// in a handler body (the reply is encoded when it crosses the wire).
func checkHandlerReplies(body *ast.BlockStmt, check func(ast.Expr, string)) {
	inspectSkipNestedFuncs(body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 3 {
			return true
		}
		check(ret.Results[0], "handler reply")
		return true
	})
}
