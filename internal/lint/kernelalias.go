package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// KernelAlias enforces the PR 2 buffer-reuse hazard: a compiled expression
// kernel (any value of the vecFn shape, func(*vector.Batch) ([]T, error))
// returns a vector that may alias a buffer owned by the kernel's closure
// and overwritten on its next call. The returned slice therefore must not
// outlive the current call: storing it into a struct field, a captured
// (closure or package-level) variable, or returning it without a copy is
// silent data corruption once the kernel runs again. Reading elements
// (vals[i]) is safe — the hazard is retaining the slice header, not the
// values. Copying detaches: append(dst, vals...) spreads elements and
// copy(dst, vals) duplicates them, so neither propagates taint.
//
// Intentional aliasing (a column-reference kernel returns the stable input
// column) is suppressed with //jsqlint:ignore kernelalias plus a reason.
//
// The same holds one level up, for operators: a batch returned by
// NextBatch() is valid only until the producer's next NextBatch or Close
// (flatten reuses its output vectors, project emits its kernels' buffers).
// Passing such a batch on is fine; keeping it is not, so a NextBatch result
// — or one of its Cols vectors — appended to a slice or sent on a channel
// is reported. A consumer that keeps rows copies them on arrival
// (b.Compact(), b.AppendRows, append(dst, col...)).
var KernelAlias = &Analyzer{
	Name: "kernelalias",
	Doc:  "kernel output vectors and NextBatch results must not be retained past the producer's next call",
	Run:  runKernelAlias,
}

func runKernelAlias(pass *Pass) error {
	for _, f := range pass.Files {
		for _, unit := range funcUnits(f) {
			w := &aliasWalker{pass: pass, body: unit.body,
				taint: map[types.Object]bool{}, batches: map[types.Object]bool{}}
			w.walkStmts(unit.body.List)
		}
	}
	return nil
}

type aliasWalker struct {
	pass  *Pass
	body  *ast.BlockStmt
	taint map[types.Object]bool
	// batches holds the locals bound to a NextBatch result, a view of one
	// (WithSel), or one of its column vectors.
	batches map[types.Object]bool
}

// isNextBatchCall reports whether call is x.NextBatch() returning a batch.
func (w *aliasWalker) isNextBatchCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "NextBatch" || len(call.Args) != 0 {
		return false
	}
	tv, ok := w.pass.Info.Types[call.Fun]
	if !ok {
		return false
	}
	sig, ok := tv.Type.(*types.Signature)
	return ok && sig.Results().Len() == 2 && isBatchType(sig.Results().At(0).Type())
}

// batchData reports whether e evaluates to a producer-owned batch (a
// NextBatch result or a view of one) or one of its column vectors.
func (w *aliasWalker) batchData(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := w.pass.Info.ObjectOf(x)
		return obj != nil && w.batches[obj]
	case *ast.SelectorExpr: // b.Cols
		return x.Sel.Name == "Cols" && w.batchData(x.X)
	case *ast.IndexExpr: // b.Cols[c]
		return w.batchData(x.X)
	case *ast.SliceExpr:
		return w.batchData(x.X)
	case *ast.CallExpr:
		if w.isNextBatchCall(x) {
			return true
		}
		// b.WithSel(sel) shares b's vectors; b.Column(c) returns one.
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "WithSel" || sel.Sel.Name == "Column") {
			return w.batchData(sel.X)
		}
	case *ast.UnaryExpr:
		return x.Op == token.AND && w.batchData(x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if w.batchData(el) {
				return true
			}
		}
	}
	return false
}

// checkBatchRetention reports every append in e that keeps batch data as
// an element: append(dst, b), append(dst, b.Cols[c]) or, spreading the
// column vectors themselves, append(dst, b.Cols...). Spreading one column,
// append(dst, b.Cols[c]...), copies its values and passes.
func (w *aliasWalker) checkBatchRetention(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // its own unit
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "append" || len(call.Args) < 2 {
			return true
		}
		if obj := w.pass.Info.ObjectOf(id); obj != nil && obj.Parent() != types.Universe {
			return true
		}
		kept := call.Args[1:]
		if call.Ellipsis != token.NoPos {
			kept = nil
			if sel, ok := ast.Unparen(call.Args[1]).(*ast.SelectorExpr); ok && w.batchData(sel) {
				kept = call.Args[1:] // b.Cols...: the vectors, not their values
			}
		}
		for _, a := range kept {
			if w.batchData(a) {
				w.pass.Reportf(a.Pos(), "NextBatch result appended without a copy; it is valid only until the producer's next NextBatch — copy the rows on arrival (Compact, AppendRows)")
				return false
			}
		}
		return true
	})
}

// trackBatches records which locals an assignment binds to batch data.
func (w *aliasWalker) trackBatches(lhs, rhs []ast.Expr) {
	set := func(l ast.Expr, on bool) {
		id, ok := l.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		if obj := w.pass.Info.ObjectOf(id); obj != nil {
			if on {
				w.batches[obj] = true
			} else {
				delete(w.batches, obj)
			}
		}
	}
	if len(rhs) == 1 && len(lhs) > 1 {
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			set(lhs[0], w.isNextBatchCall(call))
		}
		return
	}
	if len(lhs) == len(rhs) {
		for i := range lhs {
			set(lhs[i], w.batchData(rhs[i]))
		}
	}
}

// isKernelCall reports whether the call invokes a value of the kernel
// signature (the callee's static type is func(*vector.Batch) ([]T, error)).
func (w *aliasWalker) isKernelCall(call *ast.CallExpr) bool {
	tv, ok := w.pass.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.IsType() { // conversion, not a call
		return false
	}
	return isKernelSig(tv.Type)
}

// tainted reports whether evaluating e can yield (or contain) a kernel's
// reusable output slice.
func (w *aliasWalker) tainted(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		obj := w.pass.Info.ObjectOf(x)
		return obj != nil && w.taint[obj]
	case *ast.CallExpr:
		if w.isKernelCall(x) {
			return true
		}
		// append(dst, vals) retains vals as an element of dst; with ellipsis
		// the elements are copied out, which detaches from the buffer.
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "append" {
			if obj := w.pass.Info.ObjectOf(id); obj == nil || obj.Parent() == types.Universe {
				if len(x.Args) > 0 && w.tainted(x.Args[0]) {
					return true
				}
				if x.Ellipsis == token.NoPos {
					for _, a := range x.Args[1:] {
						if w.tainted(a) {
							return true
						}
					}
				}
			}
		}
		return false
	case *ast.ParenExpr:
		return w.tainted(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return w.tainted(x.X) // &Batch{Cols: tainted} escapes the buffer
		}
		return false
	case *ast.SliceExpr:
		return w.tainted(x.X) // reslicing shares the backing array
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if w.tainted(v) {
				return true
			}
		}
		return false
	}
	// Index reads (vals[i]) produce element values, not the slice; any other
	// expression form is considered clean.
	return false
}

// captured reports whether the identifier's object is declared outside the
// current function body (closure capture or package-level state) — storing
// a kernel buffer there retains it across calls.
func (w *aliasWalker) captured(id *ast.Ident) bool {
	obj := w.pass.Info.ObjectOf(id)
	if obj == nil {
		return false
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return false
	}
	return !declaredWithin(obj, w.body)
}

func (w *aliasWalker) setTaint(id *ast.Ident, t bool) {
	obj := w.pass.Info.ObjectOf(id)
	if obj == nil {
		return
	}
	if t {
		w.taint[obj] = true
	} else {
		delete(w.taint, obj)
	}
}

func (w *aliasWalker) assign(lhs, rhs []ast.Expr, pos ast.Node) {
	// Tuple form vals, err := fn(b): only the first result carries the buffer.
	if len(rhs) == 1 && len(lhs) > 1 {
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok && w.isKernelCall(call) {
			w.storeTaint(lhs[0], true, pos)
			for _, l := range lhs[1:] {
				if id, ok := l.(*ast.Ident); ok {
					w.setTaint(id, false)
				}
			}
			return
		}
	}
	if len(lhs) != len(rhs) {
		return
	}
	for i := range lhs {
		w.storeTaint(lhs[i], w.tainted(rhs[i]), pos)
	}
}

// storeTaint applies one lhs <- tainted-value store, reporting retention
// sinks: struct fields, captured variables, and elements of either.
func (w *aliasWalker) storeTaint(l ast.Expr, t bool, pos ast.Node) {
	switch x := l.(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return
		}
		if t && w.captured(x) {
			w.pass.Reportf(x.Pos(), "kernel output vector stored in captured variable %s; it is overwritten on the kernel's next call — copy it first", x.Name)
			return
		}
		w.setTaint(x, t)
	case *ast.SelectorExpr:
		if t {
			w.pass.Reportf(x.Pos(), "kernel output vector stored in field %s; it is overwritten on the kernel's next call — copy it first", exprString(x))
		}
	case *ast.IndexExpr:
		if !t {
			return
		}
		switch base := ast.Unparen(x.X).(type) {
		case *ast.Ident:
			if w.captured(base) {
				w.pass.Reportf(x.Pos(), "kernel output vector stored in captured slice %s; it is overwritten on the kernel's next call — copy it first", base.Name)
				return
			}
			w.setTaint(base, true) // local container now holds the buffer
		case *ast.SelectorExpr:
			w.pass.Reportf(x.Pos(), "kernel output vector stored in field %s; it is overwritten on the kernel's next call — copy it first", exprString(base))
		}
	}
}

func (w *aliasWalker) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		w.walkStmt(s)
	}
}

func (w *aliasWalker) walkStmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.AssignStmt:
		for _, r := range x.Rhs {
			w.checkBatchRetention(r)
		}
		w.assign(x.Lhs, x.Rhs, x)
		w.trackBatches(x.Lhs, x.Rhs)
	case *ast.SendStmt:
		if w.batchData(x.Value) {
			w.pass.Reportf(x.Value.Pos(), "NextBatch result sent on a channel without a copy; it is valid only until the producer's next NextBatch — copy the rows first (Compact, AppendRows)")
		}
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				lhs := make([]ast.Expr, len(vs.Names))
				for i, n := range vs.Names {
					lhs[i] = n
				}
				for _, v := range vs.Values {
					w.checkBatchRetention(v)
				}
				w.assign(lhs, vs.Values, x)
				w.trackBatches(lhs, vs.Values)
			}
		}
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			if w.tainted(r) {
				w.pass.Reportf(x.Pos(), "kernel output vector returned without a copy; it is overwritten on the kernel's next call")
				break
			}
		}
	case *ast.IfStmt:
		if x.Init != nil {
			w.walkStmt(x.Init)
		}
		w.walkStmts(x.Body.List)
		if x.Else != nil {
			w.walkStmt(x.Else)
		}
	case *ast.BlockStmt:
		w.walkStmts(x.List)
	case *ast.ForStmt:
		if x.Init != nil {
			w.walkStmt(x.Init)
		}
		w.walkStmts(x.Body.List)
		if x.Post != nil {
			w.walkStmt(x.Post)
		}
	case *ast.RangeStmt:
		w.walkStmts(x.Body.List)
	case *ast.SwitchStmt:
		if x.Init != nil {
			w.walkStmt(x.Init)
		}
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			w.walkStmt(x.Init)
		}
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					w.walkStmt(cc.Comm)
				}
				w.walkStmts(cc.Body)
			}
		}
	case *ast.LabeledStmt:
		w.walkStmt(x.Stmt)
	}
}
