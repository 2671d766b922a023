package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Locks enforces the lock discipline of the shard/router and pipeline
// layers. Mutex fields carry //topk:lockrank N [leaf] annotations; the
// analyzer tracks acquisitions through each function body and checks:
//
//   - rule "order": locks must be acquired in strictly increasing rank
//     order. The repository's order is regMu(10) < stepMu(20) <
//     closeMu(30) < routing locks mu/qmu(40): coarse serialization locks
//     outermost, the routing table innermost. Acquiring a lower- or
//     equal-ranked lock while holding a higher one is how the
//     register/close paths deadlock.
//   - rule "blocking": while a lock marked `leaf` is held, no channel
//     send, channel receive, select, or call to a //topk:blocking
//     function (the worker job submitters) may execute. Leaf locks are
//     the innermost hot locks — the routing table — and a channel op
//     under one stalls every router operation behind a shard's queue, or
//     deadlocks outright when the worker needs the same lock to drain.
//
// The walk is a linear, intra-procedural approximation: branches are
// analyzed with a copy of the held set and their effects do not
// propagate past the branch. That matches the codebase's straight-line
// lock usage; code the approximation misjudges can carry a //topk:allow
// with its justification.
var Locks = &Analyzer{
	Name: "locks",
	Doc:  "enforce //topk:lockrank acquisition order and forbid channel ops or //topk:blocking calls under leaf locks",
	Run:  runLocks,
}

type heldLock struct {
	key  string // "Type.field"
	expr string // source-ish text, e.g. "s.mu"
	rank int
	leaf bool
}

func runLocks(pass *Pass) error {
	dirs := pass.directives()
	if len(dirs.lockRanks) == 0 {
		return nil
	}
	// Objects of //topk:blocking functions declared in this package.
	blocking := map[types.Object]bool{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && dirs.funcBlocking[fn] {
				if obj := pass.TypesInfo.Defs[fn.Name]; obj != nil {
					blocking[obj] = true
				}
			}
		}
	}
	lw := &lockWalker{pass: pass, ranks: dirs.lockRanks, blocking: blocking}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				lw.walkStmts(fn.Body.List, nil)
			}
		}
	}
	return nil
}

type lockWalker struct {
	pass     *Pass
	ranks    map[string]lockRank
	blocking map[types.Object]bool
}

// lockOp classifies a call as an acquire/release of a ranked lock.
// Returns the lock and +1 (acquire), -1 (release), or 0 (not a lock op).
func (lw *lockWalker) lockOp(call *ast.CallExpr) (heldLock, int) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return heldLock{}, 0
	}
	var dir int
	switch sel.Sel.Name {
	case "Lock", "RLock":
		dir = +1
	case "Unlock", "RUnlock":
		dir = -1
	default:
		return heldLock{}, 0
	}
	field, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return heldLock{}, 0
	}
	selection, ok := lw.pass.TypesInfo.Selections[field]
	if !ok {
		return heldLock{}, 0
	}
	recv := selection.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return heldLock{}, 0
	}
	key := named.Obj().Name() + "." + selection.Obj().Name()
	lr, ok := lw.ranks[key]
	if !ok {
		return heldLock{}, 0
	}
	return heldLock{key: key, expr: exprText(sel.X), rank: lr.rank, leaf: lr.leaf}, dir
}

// walkStmts processes stmts in order, threading the held-lock set, and
// returns the set as of the end of the sequence.
func (lw *lockWalker) walkStmts(stmts []ast.Stmt, held []heldLock) []heldLock {
	for _, s := range stmts {
		held = lw.walkStmt(s, held)
	}
	return held
}

func (lw *lockWalker) walkStmt(s ast.Stmt, held []heldLock) []heldLock {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if l, dir := lw.lockOp(call); dir != 0 {
				if dir > 0 {
					return lw.acquire(call.Pos(), held, l)
				}
				return release(held, l.key)
			}
		}
		lw.checkExprs(s, held)
	case *ast.DeferStmt:
		// defer x.Unlock() keeps the lock held to function end: no state
		// change. A deferred blocking call still runs with whatever is
		// held here, so check it.
		if _, dir := lw.lockOp(s.Call); dir != 0 {
			return held
		}
		lw.checkExprs(s, held)
	case *ast.SendStmt:
		lw.reportChannelOp(s.Pos(), "channel send", held)
		lw.checkExprs(s, held)
	case *ast.SelectStmt:
		lw.reportChannelOp(s.Pos(), "select", held)
		if s.Body != nil {
			for _, c := range s.Body.List {
				if comm, ok := c.(*ast.CommClause); ok {
					lw.walkStmts(comm.Body, append([]heldLock(nil), held...))
				}
			}
		}
	case *ast.BlockStmt:
		return lw.walkStmts(s.List, held)
	case *ast.LabeledStmt:
		return lw.walkStmt(s.Stmt, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held = lw.walkStmt(s.Init, held)
		}
		lw.checkExpr(s.Cond, held)
		lw.walkStmts(s.Body.List, append([]heldLock(nil), held...))
		if s.Else != nil {
			lw.walkStmt(s.Else, append([]heldLock(nil), held...))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held = lw.walkStmt(s.Init, held)
		}
		lw.walkStmts(s.Body.List, append([]heldLock(nil), held...))
	case *ast.RangeStmt:
		lw.checkExpr(s.X, held)
		lw.walkStmts(s.Body.List, append([]heldLock(nil), held...))
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = lw.walkStmt(s.Init, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				lw.walkStmts(cc.Body, append([]heldLock(nil), held...))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				lw.walkStmts(cc.Body, append([]heldLock(nil), held...))
			}
		}
	case *ast.GoStmt:
		// The spawned goroutine runs with its own (empty) held set.
	default:
		lw.checkExprs(s, held)
	}
	return held
}

func (lw *lockWalker) acquire(pos token.Pos, held []heldLock, l heldLock) []heldLock {
	for _, h := range held {
		if h.rank >= l.rank {
			lw.pass.Reportf(pos, "order", "lock order violation: acquiring %s (rank %d) while holding %s (rank %d); locks must be acquired in strictly increasing rank order", l.expr, l.rank, h.expr, h.rank)
			break
		}
	}
	return append(held, l)
}

func release(held []heldLock, key string) []heldLock {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].key == key {
			return append(held[:i:i], held[i+1:]...)
		}
	}
	return held
}

// checkExprs inspects a statement's expressions (not nested statements)
// for channel receives and blocking calls under a leaf lock.
func (lw *lockWalker) checkExprs(s ast.Stmt, held []heldLock) {
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // runs later, under its caller's locks
		case ast.Stmt:
			if n != s {
				switch n.(type) {
				case *ast.BlockStmt, *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt,
					*ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
					return false // nested statements are walked by walkStmt
				}
			}
		case ast.Expr:
			lw.checkExprNode(n, held)
		}
		return true
	})
}

func (lw *lockWalker) checkExpr(e ast.Expr, held []heldLock) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if ex, ok := n.(ast.Expr); ok {
			lw.checkExprNode(ex, held)
		}
		return true
	})
}

func (lw *lockWalker) checkExprNode(e ast.Expr, held []heldLock) {
	switch e := e.(type) {
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			lw.reportChannelOp(e.Pos(), "channel receive", held)
		}
	case *ast.CallExpr:
		var obj types.Object
		switch fun := e.Fun.(type) {
		case *ast.Ident:
			obj = lw.pass.TypesInfo.Uses[fun]
		case *ast.SelectorExpr:
			obj = lw.pass.TypesInfo.Uses[fun.Sel]
		}
		if obj != nil && lw.blocking[obj] {
			lw.reportChannelOp(e.Pos(), "call to //topk:blocking "+obj.Name(), held)
		}
	}
}

func (lw *lockWalker) reportChannelOp(pos token.Pos, what string, held []heldLock) {
	for _, h := range held {
		if h.leaf {
			lw.pass.Reportf(pos, "blocking", "%s while holding leaf lock %s: leaf locks are the innermost hot locks and must never wait on channel or worker progress", what, h.expr)
			return
		}
	}
}

func exprText(e ast.Expr) string {
	var b strings.Builder
	writeExprText(&b, e)
	return b.String()
}

func writeExprText(b *strings.Builder, e ast.Expr) {
	switch e := e.(type) {
	case *ast.Ident:
		b.WriteString(e.Name)
	case *ast.SelectorExpr:
		writeExprText(b, e.X)
		b.WriteString(".")
		b.WriteString(e.Sel.Name)
	default:
		b.WriteString("?")
	}
}
