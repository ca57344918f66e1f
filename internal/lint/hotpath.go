package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// NewHotpath builds the hotpath analyzer: functions annotated
// //txgc:hotpath, and every module-local function statically reachable
// from one, may not contain allocating constructs. The static checks are
// the constructs the compiler always heap-allocates (or that drag in an
// allocating runtime path):
//
//   - calls into package fmt (formatting allocates even when the result
//     doesn't escape), except a call that is itself the operand of a
//     return in an error result position: building the error is the
//     failure path, which the accepted path never reaches
//   - map and slice literals, make, new, and &T{...} composite literals
//   - non-constant string concatenation
//   - conversions of non-pointer-shaped concrete values to interface types
//     (at assignments, call arguments, and returns)
//   - function literals that capture enclosing locals (a capturing closure
//     is a heap allocation; a non-capturing one is a static value)
//
// Plain value composite literals and append growth are deliberately out of
// scope here: whether they allocate depends on escape analysis, which the
// escape mode (txgc-lint -escape) checks against lint/escape_allowlist.txt
// using the compiler's own -m output. Dynamic calls (interface methods,
// function values) end the traversal; the alloc budget gates in
// bench_budget.txt remain the runtime twin of both modes.
func NewHotpath() *Analyzer {
	return &Analyzer{
		Name: "hotpath",
		Doc:  "no allocating constructs in //txgc:hotpath functions or their module-local callees",
		Run: func(prog *Program) []Diagnostic {
			cc := prog.reachableFrom(prog.Hotpath, nil)
			var out []Diagnostic
			for _, fn := range cc.visited {
				out = append(out, checkHotFunc(prog, cc, fn)...)
			}
			return out
		},
	}
}

func checkHotFunc(prog *Program, cc *callChain, fn *types.Func) []Diagnostic {
	fb := prog.FuncBodyOf(fn)
	h := &hotChecker{prog: prog, pkg: fb.Pkg, fn: fn, root: cc.rootOf(fn), failRet: map[*ast.CallExpr]bool{}}
	ast.Inspect(fb.Decl.Body, h.visit)
	return h.out
}

type hotChecker struct {
	prog *Program
	pkg  *Package
	fn   *types.Func
	root *types.Func
	out  []Diagnostic
	// failRet holds the calls returned in an error result position.
	failRet map[*ast.CallExpr]bool
}

func (h *hotChecker) diag(id string, pos token.Pos, format string, args ...any) {
	where := ""
	if h.fn != h.root {
		where = fmt.Sprintf(" (on the hot path of %s)", funcDisplay(h.root))
	}
	h.out = append(h.out, Diagnostic{
		Analyzer: "hotpath", ID: id, Pos: h.prog.Position(pos),
		Message: fmt.Sprintf(format, args...) + where,
	})
}

func (h *hotChecker) visit(n ast.Node) bool {
	info := h.pkg.Info
	switch n := n.(type) {
	case *ast.CallExpr:
		h.checkCall(n)
	case *ast.CompositeLit:
		h.checkCompositeLit(n)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				h.diag("hotpath-alloc", n.Pos(), "&composite literal allocates")
				return false // the inner literal is already reported
			}
		}
	case *ast.BinaryExpr:
		if n.Op == token.ADD {
			if tv, ok := info.Types[n]; ok && tv.Value == nil && isString(tv.Type) {
				h.diag("hotpath-concat", n.Pos(), "string concatenation allocates")
			}
		}
	case *ast.FuncLit:
		if capt := capturedLocal(info, n); capt != nil {
			h.diag("hotpath-closure", n.Pos(), "closure captures %q — a capturing closure is a heap allocation", capt.Name())
			return false // don't descend: the closure runs elsewhere
		}
		return false
	case *ast.AssignStmt:
		for i, rhs := range n.Rhs {
			if i < len(n.Lhs) && len(n.Lhs) == len(n.Rhs) {
				if lt, ok := info.Types[n.Lhs[i]]; ok {
					h.checkIfaceConv(lt.Type, rhs)
				}
			}
		}
	case *ast.ReturnStmt:
		sig := h.fn.Type().(*types.Signature)
		if sig.Results().Len() == len(n.Results) {
			for i, res := range n.Results {
				rt := sig.Results().At(i).Type()
				h.checkIfaceConv(rt, res)
				if call, ok := ast.Unparen(res).(*ast.CallExpr); ok && types.Identical(rt, errorType) {
					h.failRet[call] = true
				}
			}
		}
	}
	return true
}

func (h *hotChecker) checkCall(call *ast.CallExpr) {
	info := h.pkg.Info
	// Builtins: make and new always go through the allocator (make of a
	// sized slice may stay on the stack, but only escape analysis knows —
	// and the hot path has scratch-buffer idioms for every such case).
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				h.diag("hotpath-alloc", call.Pos(), "%s allocates", b.Name())
			}
			return
		}
	}
	// Conversions are not calls.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if t := tv.Type; t != nil {
			h.checkIfaceConvAt(t, call.Args[0], call.Pos())
		}
		return
	}
	callee := StaticCallee(info, call)
	if callee == nil {
		return
	}
	if callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		if h.failRet[call] {
			return
		}
		h.diag("hotpath-fmt", call.Pos(), "call to fmt.%s allocates", callee.Name())
		return
	}
	// Interface-typed parameters box non-pointer arguments.
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // passing a slice through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil {
			h.checkIfaceConv(pt, arg)
		}
	}
}

func (h *hotChecker) checkCompositeLit(lit *ast.CompositeLit) {
	tv, ok := h.pkg.Info.Types[lit]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map:
		h.diag("hotpath-alloc", lit.Pos(), "map literal allocates")
	case *types.Slice:
		h.diag("hotpath-alloc", lit.Pos(), "slice literal allocates")
	}
	// Value struct/array literals are escape analysis's business.
}

// checkIfaceConv flags an implicit conversion of a non-pointer-shaped
// concrete value to an interface type — the conversion boxes the value on
// the heap. Pointer-shaped values (pointers, channels, maps, funcs) fit in
// the interface word; constants are compiled to static interface data.
func (h *hotChecker) checkIfaceConv(target types.Type, expr ast.Expr) {
	h.checkIfaceConvAt(target, expr, expr.Pos())
}

func (h *hotChecker) checkIfaceConvAt(target types.Type, expr ast.Expr, pos token.Pos) {
	if target == nil || !types.IsInterface(target.Underlying()) {
		return
	}
	tv, ok := h.pkg.Info.Types[expr]
	if !ok || tv.Type == nil || tv.Value != nil {
		return // untyped constant (incl. nil) → static data
	}
	st := tv.Type
	if types.IsInterface(st.Underlying()) || isPointerShaped(st) || isUntypedNil(st) {
		return
	}
	h.diag("hotpath-iface", pos,
		"%s → %s boxes a non-pointer value on the heap", types.TypeString(st, types.RelativeTo(h.pkg.Types)), target.String())
}

var errorType = types.Universe.Lookup("error").Type()

func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// capturedLocal returns a variable the function literal captures from its
// enclosing function, or nil if it captures nothing (a static closure).
func capturedLocal(info *types.Info, lit *ast.FuncLit) *types.Var {
	var captured *types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == nil || v.Parent().Parent() == types.Universe {
			return true // package-level
		}
		// Declared outside the literal but used inside it → captured.
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = v
			return false
		}
		return true
	})
	return captured
}
