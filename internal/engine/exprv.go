package engine

import (
	"fmt"
	"strings"

	"jsonpark/internal/sqlast"
	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// vecFn evaluates one compiled expression over a batch, returning a vector
// of results aligned with the batch's physical rows. Only the positions in
// the batch's selection are computed (and valid); the returned slice may
// alias a column of the input batch or a buffer owned by the closure that
// is overwritten on its next call, so callers must not mutate it and must
// copy anything they retain past the next evaluation.
type vecFn func(b *vector.Batch) ([]variant.Value, error)

// growBuf returns a length-n buffer, reusing buf's capacity when it fits.
// Stale values at inactive positions are fine: vecFn results are only
// defined at the batch's active positions.
func growBuf(buf []variant.Value, n int) []variant.Value {
	if cap(buf) < n {
		return make([]variant.Value, n)
	}
	return buf[:n]
}

// compileVec binds a SQL expression to a schema, producing a batch
// evaluator. It mirrors compileExpr case for case; lazily evaluated
// constructs (AND/OR/CASE) restrict the selection before evaluating their
// conditional operands, preserving the row-at-a-time short-circuit
// semantics (a division that the row engine never reached is not evaluated
// here either). ctx (nil-safe) receives the typed-kernel vs variant-fallback
// column-read counters; comparison, arithmetic and IS NULL shapes over
// column references get typed kernels (exprt.go) with the generic closure as
// their run-time fallback.
func compileVec(ctx *execContext, sc *Schema, e sqlast.Expr) (vecFn, error) {
	switch x := e.(type) {
	case *sqlast.Lit:
		v := x.Value
		var out []variant.Value
		return func(b *vector.Batch) ([]variant.Value, error) {
			out = growBuf(out, b.Len())
			b.ForEach(func(i int) { out[i] = v })
			return out, nil
		}, nil
	case *sqlast.ColRef:
		name := x.Name
		if x.Table != "" {
			name = x.Table + "." + x.Name
		}
		i, ok := sc.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("engine: unknown column %q (have %v)", name, sc.Names)
		}
		var out []variant.Value
		return func(b *vector.Batch) ([]variant.Value, error) {
			if b.Cols[i] == nil {
				if tc := b.TypedCol(i); tc != nil {
					// A typed column is leaving the typed fast path. Materialize
					// into the closure buffer — the vecFn contract lets the
					// output alias storage reused on the next call — rather
					// than through Column's per-batch cache, which would
					// allocate a fresh variant slice for every batch.
					ctx.countFallbackCols(1)
					out = tc.Materialize(out[:0])
					return out, nil
				}
			}
			return b.Column(i), nil
		}, nil
	case *sqlast.Star:
		return nil, fmt.Errorf("engine: '*' is only valid in COUNT(*) or a select list")
	case *sqlast.FuncCall:
		return compileVecFuncCall(ctx, sc, x)
	case *sqlast.Binary:
		return compileVecBinary(ctx, sc, x)
	case *sqlast.Unary:
		operand, err := compileVec(ctx, sc, x.Operand)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "-":
			return mapVec(operand, variant.Neg), nil
		case "NOT":
			return mapVec(operand, func(v variant.Value) (variant.Value, error) {
				if v.IsNull() {
					return variant.Null, nil
				}
				return variant.Bool(!truthySQL(v)), nil
			}), nil
		}
		return nil, fmt.Errorf("engine: unknown unary operator %q", x.Op)
	case *sqlast.IsNull:
		operand, err := compileVec(ctx, sc, x.Operand)
		if err != nil {
			return nil, err
		}
		negate := x.Negate
		generic := mapVec(operand, func(v variant.Value) (variant.Value, error) {
			return variant.Bool(v.IsNull() != negate), nil
		})
		if typed := compileTypedIsNull(ctx, sc, x, generic); typed != nil {
			return typed, nil
		}
		return generic, nil
	case *sqlast.CaseWhen:
		return compileVecCase(ctx, sc, x)
	case *sqlast.Cast:
		operand, err := compileVec(ctx, sc, x.Operand)
		if err != nil {
			return nil, err
		}
		typ := strings.ToUpper(x.Type)
		return mapVec(operand, func(v variant.Value) (variant.Value, error) {
			if v.IsNull() {
				return v, nil
			}
			return castValue(typ, v)
		}), nil
	}
	return nil, fmt.Errorf("engine: cannot compile expression %T", e)
}

// mapVec lifts an elementwise kernel over the active rows of a batch.
func mapVec(in vecFn, fn func(variant.Value) (variant.Value, error)) vecFn {
	var out []variant.Value
	return func(b *vector.Batch) ([]variant.Value, error) {
		vals, err := in(b)
		if err != nil {
			return nil, err
		}
		out = growBuf(out, b.Len())
		var ferr error
		b.ForEach(func(i int) {
			if ferr != nil {
				return
			}
			out[i], ferr = fn(vals[i])
		})
		if ferr != nil {
			return nil, ferr
		}
		return out, nil
	}
}

func compileVecFuncCall(ctx *execContext, sc *Schema, x *sqlast.FuncCall) (vecFn, error) {
	name := strings.ToUpper(x.Name)
	if isAggregateName(name) {
		return nil, fmt.Errorf("engine: aggregate %s outside GROUP BY context", name)
	}
	if name == "SEQ8" || name == "SEQ4" {
		// Monotone per-operator sequence (row-ID injection, §IV-B). The
		// counter advances in active-row order, so with the ordered scan
		// merge the assigned IDs match the row engine's.
		var counter int64
		var out []variant.Value
		return func(b *vector.Batch) ([]variant.Value, error) {
			out = growBuf(out, b.Len())
			b.ForEach(func(i int) {
				out[i] = variant.Int(counter)
				counter++
			})
			return out, nil
		}, nil
	}
	fn, ok := scalarFuncs[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown function %s", name)
	}
	// Literal arguments are bound into argBuf once, here; only the other
	// arguments are evaluated per batch and gathered per row.
	argBuf := make([]variant.Value, len(x.Args))
	var argIdx []int
	var args []vecFn
	for i, a := range x.Args {
		if v, ok := litValue(a); ok {
			argBuf[i] = v
			continue
		}
		c, err := compileVec(ctx, sc, a)
		if err != nil {
			return nil, err
		}
		argIdx = append(argIdx, i)
		args = append(args, c)
	}
	if name == "GET" && len(x.Args) == 2 && len(args) == 1 && argIdx[0] == 0 {
		if get := compileVecGet(args[0], argBuf[1]); get != nil {
			return get, nil
		}
	}
	cols := make([][]variant.Value, len(args))
	var out []variant.Value
	return func(b *vector.Batch) ([]variant.Value, error) {
		for i, a := range args {
			vals, err := a(b)
			if err != nil {
				return nil, err
			}
			// The argument buffers are fully consumed by fn within this call,
			// before any argument kernel runs again.
			cols[i] = vals //jsqlint:ignore kernelalias cols is scratch; read out below before the kernels' next call
		}
		out = growBuf(out, b.Len())
		var ferr error
		b.ForEach(func(i int) {
			if ferr != nil {
				return
			}
			for c, col := range cols {
				argBuf[argIdx[c]] = col[i]
			}
			out[i], ferr = fn(argBuf)
		})
		if ferr != nil {
			return nil, ferr
		}
		return out, nil
	}, nil
}

// compileVecGet specializes GET(v, <literal key>), the most common call in
// the generated SQL: a string key compiles to a direct Field loop and an
// integer key to a direct Index loop, with fnGet's semantics (NULL, a
// missing field, a wrong kind or an out-of-range index all give NULL). Any
// other key returns nil and keeps fnGet.
func compileVecGet(obj vecFn, key variant.Value) vecFn {
	var out []variant.Value
	switch key.Kind() {
	case variant.KindString:
		field := key.AsString()
		return func(b *vector.Batch) ([]variant.Value, error) {
			vals, err := obj(b)
			if err != nil {
				return nil, err
			}
			out = growBuf(out, b.Len())
			b.ForEach(func(i int) { out[i] = vals[i].Field(field) })
			return out, nil
		}
	case variant.KindInt:
		idx := int(key.AsInt())
		return func(b *vector.Batch) ([]variant.Value, error) {
			vals, err := obj(b)
			if err != nil {
				return nil, err
			}
			out = growBuf(out, b.Len())
			b.ForEach(func(i int) { out[i] = vals[i].Index(idx) })
			return out, nil
		}
	}
	return nil
}

func compileVecBinary(ctx *execContext, sc *Schema, x *sqlast.Binary) (vecFn, error) {
	left, err := compileVec(ctx, sc, x.Left)
	if err != nil {
		return nil, err
	}
	right, err := compileVec(ctx, sc, x.Right)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "AND":
		var out []variant.Value
		var need []int
		return func(b *vector.Batch) ([]variant.Value, error) {
			l, err := left(b)
			if err != nil {
				return nil, err
			}
			out = growBuf(out, b.Len())
			// Rows whose left side is definitively FALSE never evaluate the
			// right side, matching row-engine short-circuiting.
			need = need[:0]
			b.ForEach(func(i int) {
				if !l[i].IsNull() && !truthySQL(l[i]) {
					out[i] = variant.Bool(false)
				} else {
					need = append(need, i)
				}
			})
			if len(need) == 0 {
				return out, nil
			}
			r, err := right(b.WithSel(need))
			if err != nil {
				return nil, err
			}
			for _, i := range need {
				switch {
				case !r[i].IsNull() && !truthySQL(r[i]):
					out[i] = variant.Bool(false)
				case l[i].IsNull() || r[i].IsNull():
					out[i] = variant.Null
				default:
					out[i] = variant.Bool(true)
				}
			}
			return out, nil
		}, nil
	case "OR":
		var out []variant.Value
		var need []int
		return func(b *vector.Batch) ([]variant.Value, error) {
			l, err := left(b)
			if err != nil {
				return nil, err
			}
			out = growBuf(out, b.Len())
			need = need[:0]
			b.ForEach(func(i int) {
				if !l[i].IsNull() && truthySQL(l[i]) {
					out[i] = variant.Bool(true)
				} else {
					need = append(need, i)
				}
			})
			if len(need) == 0 {
				return out, nil
			}
			r, err := right(b.WithSel(need))
			if err != nil {
				return nil, err
			}
			for _, i := range need {
				switch {
				case !r[i].IsNull() && truthySQL(r[i]):
					out[i] = variant.Bool(true)
				case l[i].IsNull() || r[i].IsNull():
					out[i] = variant.Null
				default:
					out[i] = variant.Bool(false)
				}
			}
			return out, nil
		}, nil
	}
	fn, err := scalarBinOp(x.Op)
	if err != nil {
		return nil, err
	}
	// A literal operand is bound once instead of filling a column per batch.
	lv, lLit := litValue(x.Left)
	rv, rLit := litValue(x.Right)
	var out []variant.Value
	generic := func(b *vector.Batch) ([]variant.Value, error) {
		var l, r []variant.Value
		var err error
		if !lLit {
			if l, err = left(b); err != nil {
				return nil, err
			}
		}
		if !rLit {
			if r, err = right(b); err != nil {
				return nil, err
			}
		}
		out = growBuf(out, b.Len())
		var ferr error
		b.ForEach(func(i int) {
			if ferr != nil {
				return
			}
			a, c := lv, rv
			if !lLit {
				a = l[i]
			}
			if !rLit {
				c = r[i]
			}
			out[i], ferr = fn(a, c)
		})
		if ferr != nil {
			return nil, ferr
		}
		return out, nil
	}
	if typed := compileTypedBinary(ctx, sc, x, generic); typed != nil {
		return typed, nil
	}
	return generic, nil
}

func compileVecCase(ctx *execContext, sc *Schema, x *sqlast.CaseWhen) (vecFn, error) {
	type arm struct{ cond, result vecFn }
	arms := make([]arm, len(x.Whens))
	for i, w := range x.Whens {
		c, err := compileVec(ctx, sc, w.Cond)
		if err != nil {
			return nil, err
		}
		r, err := compileVec(ctx, sc, w.Result)
		if err != nil {
			return nil, err
		}
		arms[i] = arm{c, r}
	}
	var els vecFn
	if x.Else != nil {
		var err error
		els, err = compileVec(ctx, sc, x.Else)
		if err != nil {
			return nil, err
		}
	}
	var out []variant.Value
	return func(b *vector.Batch) ([]variant.Value, error) {
		out = growBuf(out, b.Len())
		// Arms evaluate on progressively restricted selections so a row only
		// ever evaluates the conditions up to its first match, and only the
		// matching arm's result — the lazy CASE semantics of the row engine.
		remaining := b.ActiveSel()
		for _, a := range arms {
			if len(remaining) == 0 {
				break
			}
			cvals, err := a.cond(b.WithSel(remaining))
			if err != nil {
				return nil, err
			}
			var matched, rest []int
			for _, i := range remaining {
				if !cvals[i].IsNull() && truthySQL(cvals[i]) {
					matched = append(matched, i)
				} else {
					rest = append(rest, i)
				}
			}
			if len(matched) > 0 {
				rvals, err := a.result(b.WithSel(matched))
				if err != nil {
					return nil, err
				}
				for _, i := range matched {
					out[i] = rvals[i]
				}
			}
			remaining = rest
		}
		if len(remaining) > 0 {
			if els != nil {
				evals, err := els(b.WithSel(remaining))
				if err != nil {
					return nil, err
				}
				for _, i := range remaining {
					out[i] = evals[i]
				}
			} else {
				for _, i := range remaining {
					out[i] = variant.Null
				}
			}
		}
		return out, nil
	}, nil
}

// compileVecs compiles a list of expressions against one schema.
func compileVecs(ctx *execContext, sc *Schema, exprs []sqlast.Expr) ([]vecFn, error) {
	fns := make([]vecFn, len(exprs))
	for i, e := range exprs {
		fn, err := compileVec(ctx, sc, e)
		if err != nil {
			return nil, err
		}
		fns[i] = fn
	}
	return fns, nil
}
