package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// NewShardowned builds the shardowned analyzer: a struct field annotated
// //txgc:owner shard belongs to the goroutine holding the shard's lock
// inside run, and the lock admits one goroutine at a time. Every access to
// the field must come from run's intra-package static call graph. Two
// escapes are sanctioned:
//
//   - fields of sync/atomic types (atomic.Int64 and friends) may be read
//     anywhere — the annotation still documents who writes, but the type
//     itself makes cross-goroutine reads safe;
//   - accesses ordered after every run by other means (recovery, before
//     any submission can take the lock) carry a //lint:ignore with the
//     happens-before argument as the reason.
//     (Construction needs none: a struct literal's keys are not selections.)
//
// This is the static twin of the -race tier: -race can only catch the
// interleavings a test happens to schedule; this catches the access site.
func NewShardowned() *Analyzer {
	return &Analyzer{
		Name: "shardowned",
		Doc:  "//txgc:owner shard fields accessed only from the struct's run method, under the shard's lock (or via atomics)",
		Run:  runShardowned,
	}
}

func runShardowned(prog *Program) []Diagnostic {
	var out []Diagnostic
	// Group owned fields by declaring struct; each struct gets one
	// reachability set rooted at its run method.
	byStruct := map[*types.Named][]OwnedField{}
	for _, f := range prog.Owned {
		byStruct[f.Struct] = append(byStruct[f.Struct], f)
	}
	for named, fields := range byStruct {
		pkg := fields[0].Pkg
		run := runMethod(named, pkg)
		if run == nil {
			for _, f := range fields {
				out = append(out, Diagnostic{
					Analyzer: "shardowned", ID: "shardowned-norun", Pos: prog.Position(f.Pos),
					Message: fmt.Sprintf("field %s.%s is //txgc:owner shard but %s has no run method to own it", named.Obj().Name(), f.Obj.Name(), named.Obj().Name()),
				})
			}
			continue
		}
		// The ownership domain is intra-package: once control leaves the
		// package the shard pointer should not follow.
		cc := prog.reachableFrom([]*types.Func{run}, func(fb *FuncBody) bool { return fb.Pkg == pkg })
		owned := map[*types.Var]bool{}
		for _, f := range fields {
			if isAtomicType(f.Obj.Type()) {
				continue // safe from anywhere by construction
			}
			owned[f.Obj] = true
		}
		out = append(out, findStrayAccesses(prog, pkg, owned, cc, run)...)
	}
	return out
}

// findStrayAccesses walks every function in pkg and flags selections of an
// owned field from outside the run method's call graph.
func findStrayAccesses(prog *Program, pkg *Package, owned map[*types.Var]bool, cc *callChain, run *types.Func) []Diagnostic {
	var out []Diagnostic
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if fn != nil && cc.contains(fn) {
				continue // inside the ownership domain
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				s, ok := pkg.Info.Selections[sel]
				if !ok || s.Kind() != types.FieldVal {
					return true
				}
				v, ok := s.Obj().(*types.Var)
				if !ok || !owned[v] {
					return true
				}
				where := "package-level initializer"
				if fn != nil {
					where = funcDisplay(fn)
				}
				out = append(out, Diagnostic{
					Analyzer: "shardowned", ID: "shardowned-access", Pos: prog.Position(sel.Sel.Pos()),
					Message: fmt.Sprintf("%s accesses shard-owned field %s outside %s's call graph",
						where, v.Name(), funcDisplay(run)),
				})
				return true
			})
		}
	}
	return out
}

// runMethod resolves the run method of named (value or pointer receiver).
func runMethod(named *types.Named, pkg *Package) *types.Func {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, pkg.Types, "run")
	fn, _ := obj.(*types.Func)
	return fn
}

// isAtomicType reports whether t is (or embeds nothing but) a sync/atomic
// type like atomic.Int64.
func isAtomicType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync/atomic"
}
