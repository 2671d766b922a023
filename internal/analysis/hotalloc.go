package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotalloc enforces the allocation discipline of functions annotated
// //topk:hot — the per-cycle paths whose budget (~9 allocations per
// engine cycle, end-to-end scratch pooling) the benchmark gate protects.
// Two layers share the work:
//
//   - This analyzer rejects constructs that always cost heap or scheduler
//     work, at `go vet` time, with no compiler run needed:
//     rule "defer"     — defer on a hot function (overhead per call; a
//     defer inside a loop heap-allocates its record)
//     rule "go"        — goroutine spawn per cycle element
//     rule "closure"   — a variable-capturing func literal (heap-allocated
//     unless the callee provably does not let it escape;
//     literals passed directly to sort/slices are exempt,
//     those callees' parameters do not escape)
//     rule "alloccall" — calls into fmt, errors, log (formatting always
//     allocates; hot paths return static errors or
//     write into caller buffers)
//     rule "makemap"   — make(map)/make(chan) per call (pooled scratch
//     maps are handed in, not created)
//     rule "conv"      — string<->[]byte conversions and string
//     concatenation (each one copies)
//     rule "mapop"     — any operation on a Go map: index, assignment,
//     delete, range, clear (a hash and a probe per touch,
//     cache-hostile at the table sizes the cycle path
//     sees; hot state lives in slices and id columns, and
//     each surviving map carries a //topk:allow naming
//     what replaces it)
//
//   - The escape checker (`topklint escapes`, escape.go) diffs the
//     compiler's actual -gcflags=-m escape verdicts for hot functions
//     against the committed allowlist internal/analysis/escapes.txt, so a
//     *new* heap escape on the cycle path fails CI the way a bench
//     regression does even when it comes from a construct this analyzer
//     cannot see (interface boxing, growslice, inlining changes).
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flag always-allocating constructs (defer, capturing closures, fmt/errors calls, make(map), string copies) and map operations in //topk:hot functions",
	Run:  runHotalloc,
}

// allocPkgs are packages whose calls are flagged wholesale on hot paths.
var allocPkgs = map[string]bool{"fmt": true, "errors": true, "log": true}

// nonEscapingFuncArgPkgs are packages whose function-typed parameters are
// known not to escape, so passing a capturing literal to them directly is
// stack-friendly.
var nonEscapingFuncArgPkgs = map[string]bool{"sort": true, "slices": true}

func runHotalloc(pass *Pass) error {
	dirs := pass.directives()
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !dirs.funcHot[fn] {
				continue
			}
			checkHotFunc(pass, fn)
		}
	}
	return nil
}

func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	exemptLits := sortCallbackLiterals(pass, fn)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "defer", "defer on hot path: per-call overhead, and a defer inside a loop heap-allocates its record")
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go", "goroutine spawn on hot path: scheduler and stack cost per cycle element")
		case *ast.FuncLit:
			if !exemptLits[n] && capturesVariables(pass, fn, n) {
				pass.Reportf(n.Pos(), "closure", "variable-capturing closure on hot path: the capture set is heap-allocated unless the callee provably keeps it on the stack")
			}
		case *ast.CallExpr:
			checkHotCall(pass, n)
		case *ast.IndexExpr:
			if isMap(pass, n.X) {
				pass.Reportf(n.Pos(), "mapop", "map index on hot path: a hash and a probe per touch; keep hot state in slices or id columns")
			}
		case *ast.RangeStmt:
			if isMap(pass, n.X) {
				pass.Reportf(n.Pos(), "mapop", "range over a map on hot path: iterate a slice instead")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := pass.TypesInfo.TypeOf(n); t != nil && isString(t) {
					pass.Reportf(n.Pos(), "conv", "string concatenation on hot path allocates; write into a caller-provided buffer")
				}
			}
		}
		return true
	})
}

func checkHotCall(pass *Pass, call *ast.CallExpr) {
	// Type conversions: string([]byte) and []byte(string) copy.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		src := pass.TypesInfo.TypeOf(call.Args[0])
		if src != nil && ((isString(dst) && isByteSlice(src)) || (isByteSlice(dst) && isString(src))) {
			pass.Reportf(call.Pos(), "conv", "string<->[]byte conversion on hot path copies the contents")
		}
		return
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		b, ok := pass.TypesInfo.Uses[fun].(*types.Builtin)
		if ok && (b.Name() == "delete" || b.Name() == "clear") && len(call.Args) > 0 && isMap(pass, call.Args[0]) {
			pass.Reportf(call.Pos(), "mapop", "%s on a map on hot path: keep hot state in slices or id columns", b.Name())
		}
		if ok && b.Name() == "make" && len(call.Args) > 0 {
			if t := pass.TypesInfo.TypeOf(call.Args[0]); t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					pass.Reportf(call.Pos(), "makemap", "make(map) on hot path: hand pooled scratch maps in instead of allocating per call")
				case *types.Chan:
					pass.Reportf(call.Pos(), "makemap", "make(chan) on hot path: channels belong to the setup path")
				}
			}
		}
	case *ast.SelectorExpr:
		if obj, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok && obj.Pkg() != nil {
			if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() == nil && allocPkgs[obj.Pkg().Path()] {
				pass.Reportf(call.Pos(), "alloccall", "%s.%s on hot path always allocates; hot paths return static errors or write into caller buffers", obj.Pkg().Name(), obj.Name())
			}
		}
	}
}

// sortCallbackLiterals collects func literals passed directly to
// sort/slices functions, whose callback parameters do not escape.
func sortCallbackLiterals(pass *Pass, fn *ast.FuncDecl) map[*ast.FuncLit]bool {
	exempt := map[*ast.FuncLit]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || obj.Pkg() == nil || !nonEscapingFuncArgPkgs[obj.Pkg().Path()] {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.FuncLit); ok {
				exempt[lit] = true
			}
		}
		return true
	})
	return exempt
}

// capturesVariables reports whether lit references any object declared in
// fn outside the literal itself (receiver, parameters, or locals).
func capturesVariables(pass *Pass, fn *ast.FuncDecl, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.ObjectOf(id)
		if obj == nil {
			return true
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return true
		}
		if obj.Pos() >= fn.Pos() && obj.Pos() < fn.End() && (obj.Pos() < lit.Pos() || obj.Pos() > lit.End()) {
			captured = true
		}
		return true
	})
	return captured
}

func isMap(pass *Pass, x ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(x)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
