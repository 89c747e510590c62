package core

import (
	"fmt"

	"jsonpark/internal/jsoniq"
	"jsonpark/internal/snowpark"
	"jsonpark/internal/variant"
)

// aggKind selects how a nested query's returned items re-aggregate: into an
// array (the default JSONiq semantics of §IV-B), or directly through a SQL
// aggregate when the nested query feeds count/sum/avg/min/max/exists/empty.
type aggKind int

const (
	aggArray aggKind = iota
	aggCount
	aggSum
	aggAvg
	aggMin
	aggMax
)

// nestedQuery translates a FLWOR in expression position. The incoming
// DataFrame is passed into the nested query (§III-B2, Listing 3) and an
// updated DataFrame carrying the re-aggregated result column is returned.
func (tr *translator) nestedQuery(df *snowpark.DataFrame, f *jsoniq.FLWOR, kind aggKind) (snowpark.Column, *snowpark.DataFrame, error) {
	if df == nil {
		return snowpark.Column{}, nil, fmt.Errorf("core: nested query without an enclosing for clause")
	}
	tr.stats.nested++
	if tr.opts.Strategy == StrategyJoin {
		return tr.nestedJoin(df, f, kind)
	}
	return tr.nestedKeep(df, f, kind)
}

// nestedKeep implements the flag column approach (§IV-C1): a KEEP column
// marks rows still eligible for the return clause; unboxing uses
// OUTER => TRUE flatten so objects with empty arrays survive; failing
// where predicates clear the flag instead of removing rows. Re-aggregation
// groups by an injected row ID, aggregating the guarded return expression
// and ANY_VALUE of every outer column.
func (tr *translator) nestedKeep(df *snowpark.DataFrame, f *jsoniq.FLWOR, kind aggKind) (snowpark.Column, *snowpark.DataFrame, error) {
	rid := tr.fresh("rid")
	keep := tr.fresh("keep")
	outerCols := df.Columns()
	df = df.WithColumn(rid, snowpark.Seq8())
	df = df.WithColumn(keep, snowpark.LitBool(true))

	// Each object's "representative" row — the one whose every flatten index
	// so far is 0 or NULL — always survives where filters, implementing the
	// §IV-C1 optimization of removing all failing rows bar one per object.
	representative := snowpark.LitBool(true)

	var orderSpecs []snowpark.OrderSpec
	for _, c := range f.Clauses {
		switch cl := c.(type) {
		case *jsoniq.ForClause:
			if _, ok := cl.In.(*jsoniq.Collection); ok {
				return snowpark.Column{}, nil, errNestedCollection
			}
			col, ndf, err := tr.expr(df, cl.In)
			if err != nil {
				return snowpark.Column{}, nil, err
			}
			alias := tr.fresh("f")
			df = ndf.Flatten(col, alias, true)
			df = df.WithColumn(cl.Var, snowpark.FlattenValue(alias))
			if cl.PosVar != "" {
				df = df.WithColumn(cl.PosVar, snowpark.FlattenIndex(alias).Add(snowpark.LitInt(1)))
			}
			// Only the padding row of the OUTER flatten has a NULL index; a
			// JSON null member is a real item and stays eligible.
			df = df.WithColumn(keep,
				snowpark.Col(keep).And(snowpark.FlattenIndex(alias).IsNotNull()))
			representative = representative.And(
				snowpark.FlattenIndex(alias).IsNull().
					Or(snowpark.FlattenIndex(alias).Eq(snowpark.LitInt(0))))
		case *jsoniq.LetClause:
			col, ndf, err := tr.expr(df, cl.Expr)
			if err != nil {
				return snowpark.Column{}, nil, err
			}
			df = ndf.WithColumn(cl.Var, col)
		case *jsoniq.WhereClause:
			col, ndf, err := tr.expr(df, cl.Cond)
			if err != nil {
				return snowpark.Column{}, nil, err
			}
			pass := snowpark.Iff(col, snowpark.LitBool(true), snowpark.LitBool(false))
			df = ndf.WithColumn(keep, snowpark.Col(keep).And(pass))
			// Failing rows are really removed, except each object's
			// representative, which preserves the row ID for re-aggregation.
			df = df.Where(snowpark.Col(keep).Or(representative))
		case *jsoniq.OrderByClause:
			var err error
			df, orderSpecs, err = tr.nestedOrderBy(df, cl, orderSpecs)
			if err != nil {
				return snowpark.Column{}, nil, err
			}
		default:
			return snowpark.Column{}, nil, errNestedClause(c)
		}
	}

	retCol, df, err := tr.expr(df, f.Return)
	if err != nil {
		return snowpark.Column{}, nil, err
	}
	// Rows with KEEP = false contribute NULL, which the aggregates skip.
	guarded := snowpark.CaseWhen(snowpark.Col(keep), retCol).End()

	res := tr.fresh("nq")
	aggCol, err := nestedAggregate(kind, guarded, snowpark.CountIf(snowpark.Col(keep)), orderSpecs)
	if err != nil {
		return snowpark.Column{}, nil, err
	}
	out, err := regroup(df, rid, outerCols, aggCol.As(res))
	if err != nil {
		return snowpark.Column{}, nil, err
	}
	return snowpark.Col(res), out, nil
}

// nestedJoin implements the JOIN-based approach (§IV-C2): the row-ID-stamped
// DataFrame is copied; the nested query freely eliminates rows (inner
// flatten, real where filters); its per-row-ID aggregate is joined back to
// the copy with a left outer join, and missing results are defaulted.
func (tr *translator) nestedJoin(df *snowpark.DataFrame, f *jsoniq.FLWOR, kind aggKind) (snowpark.Column, *snowpark.DataFrame, error) {
	rid := tr.fresh("rid")
	base := df.WithColumn(rid, snowpark.Seq8())
	inner, orderSpecs, err := tr.nestedClauses(base, f)
	if err != nil {
		return snowpark.Column{}, nil, err
	}
	retCol, inner, err := tr.expr(inner, f.Return)
	if err != nil {
		return snowpark.Column{}, nil, err
	}
	res := tr.fresh("nq")
	aggCol, err := nestedAggregate(kind, retCol, snowpark.CountStar(), orderSpecs)
	if err != nil {
		return snowpark.Column{}, nil, err
	}
	grouped, err := inner.GroupBy(snowpark.Col(rid)).Agg(aggCol.As(res))
	if err != nil {
		return snowpark.Column{}, nil, err
	}
	ridR := tr.fresh("ridr")
	sel, err := grouped.Select(snowpark.Col(rid).As(ridR), snowpark.Col(res).As(res))
	if err != nil {
		return snowpark.Column{}, nil, err
	}
	joined, err := base.Join(sel, snowpark.Col(rid).Eq(snowpark.Col(ridR)), snowpark.JoinLeftOuter)
	if err != nil {
		return snowpark.Column{}, nil, err
	}
	// Objects eliminated inside the nested query resurface with NULL; apply
	// the empty-sequence default per aggregate kind.
	var filled snowpark.Column
	switch kind {
	case aggArray:
		filled = snowpark.Coalesce(snowpark.Col(res), snowpark.ArrayConstruct())
	case aggCount:
		filled = snowpark.Coalesce(snowpark.Col(res), snowpark.LitInt(0))
	default:
		filled = snowpark.Col(res)
	}
	joined = joined.WithColumn(res, filled)
	return snowpark.Col(res), joined, nil
}

// nestedSemi translates a nested query whose count feeds a filtering where
// conjunct that is false at count 0 (see semiConjunct), under either
// strategy. Objects whose nested query returns nothing are dropped by that
// conjunct anyway, so the erroneous object elimination of §IV-C is harmless
// here: the nested clauses eliminate rows as under JOIN, and the survivors
// regroup by row ID into one row per object that still has items, carrying
// the outer columns and COUNT(*). No keep flag, no representative rows and
// no join back.
func (tr *translator) nestedSemi(df *snowpark.DataFrame, f *jsoniq.FLWOR) (snowpark.Column, *snowpark.DataFrame, error) {
	tr.stats.nested++
	tr.stats.semi++
	rid := tr.fresh("rid")
	outerCols := df.Columns()
	inner, _, err := tr.nestedClauses(df.WithColumn(rid, snowpark.Seq8()), f)
	if err != nil {
		return snowpark.Column{}, nil, err
	}
	// The returned items are only counted, but the return expression is
	// still translated so the semi form accepts exactly the queries the
	// strategies accept; its unused column is pruned.
	if _, inner, err = tr.expr(inner, f.Return); err != nil {
		return snowpark.Column{}, nil, err
	}
	res := tr.fresh("nq")
	out, err := regroup(inner, rid, outerCols, snowpark.CountStar().As(res))
	if err != nil {
		return snowpark.Column{}, nil, err
	}
	return snowpark.Col(res), out, nil
}

// where translates a where clause that really removes rows: the top-level
// where, and where clauses inside JOIN-strategy and semi-form nested
// queries (a KEEP nested where keeps each object's representative row, so
// it never takes this path). Conjuncts that qualify for the semi form are
// translated by nestedSemi and filter on their own, after the conjuncts
// written before them, so a nested query only sees the rows those kept.
func (tr *translator) where(df *snowpark.DataFrame, cond jsoniq.Expr) (*snowpark.DataFrame, error) {
	var pending []snowpark.Column
	flush := func() {
		if len(pending) > 0 {
			df = df.Where(andAll(pending))
			pending = nil
		}
	}
	for _, c := range splitAnd(cond, nil) {
		if s, ok := semiConjunct(c); ok && !bindsAny(s.f, df.Columns()) {
			flush()
			n, ndf, err := tr.nestedSemi(df, s.f)
			if err != nil {
				return nil, err
			}
			test, _ := compare(s.op, n, snowpark.LitInt(s.k))
			df = ndf.Where(test)
			continue
		}
		col, ndf, err := tr.expr(df, c)
		if err != nil {
			return nil, err
		}
		df = ndf
		pending = append(pending, col)
	}
	flush()
	return df, nil
}

func andAll(cols []snowpark.Column) snowpark.Column {
	out := cols[0]
	for _, c := range cols[1:] {
		out = out.And(c)
	}
	return out
}

func splitAnd(e jsoniq.Expr, out []jsoniq.Expr) []jsoniq.Expr {
	if b, ok := e.(*jsoniq.Binary); ok && b.Op == jsoniq.OpAnd {
		return splitAnd(b.Right, splitAnd(b.Left, out))
	}
	return append(out, e)
}

// semiTest is a where conjunct in semi form: count(f) op k.
type semiTest struct {
	f  *jsoniq.FLWOR
	op jsoniq.BinaryOp
	k  int64
}

// semiConjunct recognizes a where conjunct that may take the semi form:
// exists(FLWOR) (count ge 1), or count(FLWOR) compared with an integer
// literal, provided the comparison is false at count 0 — the conjunct then
// removes every object whose nested query returns nothing. empty(),
// not(exists()) and comparisons true at 0 (lt 2, eq 0, ge 0) need those
// objects and keep the strategy's translation.
func semiConjunct(c jsoniq.Expr) (semiTest, bool) {
	if fc, ok := c.(*jsoniq.FunctionCall); ok {
		f, ok := countedFLWOR(fc, "exists")
		return semiTest{f: f, op: jsoniq.OpGe, k: 1}, ok
	}
	b, ok := c.(*jsoniq.Binary)
	if !ok {
		return semiTest{}, false
	}
	fc, isCall := b.Left.(*jsoniq.FunctionCall)
	lit, isLit := b.Right.(*jsoniq.Literal)
	if !isCall || !isLit || lit.Value.Kind() != variant.KindInt {
		return semiTest{}, false
	}
	f, ok := countedFLWOR(fc, "count")
	s := semiTest{f: f, op: b.Op, k: lit.Value.AsInt()}
	return s, ok && s.falseAtZero()
}

func countedFLWOR(fc *jsoniq.FunctionCall, name string) (*jsoniq.FLWOR, bool) {
	if fc.Name != name || len(fc.Args) != 1 {
		return nil, false
	}
	f, ok := fc.Args[0].(*jsoniq.FLWOR)
	return f, ok
}

// falseAtZero folds the test at count 0; non-comparisons never qualify.
func (s semiTest) falseAtZero() bool {
	const n = 0
	switch s.op {
	case jsoniq.OpEq:
		return !(n == s.k)
	case jsoniq.OpNe:
		return !(n != s.k)
	case jsoniq.OpLt:
		return !(n < s.k)
	case jsoniq.OpLe:
		return !(n <= s.k)
	case jsoniq.OpGt:
		return !(n > s.k)
	case jsoniq.OpGe:
		return !(n >= s.k)
	}
	return false
}

// bindsAny reports whether the nested query rebinds one of the outer
// columns. The regrouping carries outer columns by name, so a rebound one
// would carry the nested value; such queries keep the strategy's form.
func bindsAny(f *jsoniq.FLWOR, cols []string) bool {
	outer := make(map[string]bool, len(cols))
	for _, c := range cols {
		outer[c] = true
	}
	for _, c := range f.Clauses {
		switch cl := c.(type) {
		case *jsoniq.ForClause:
			if outer[cl.Var] || outer[cl.PosVar] {
				return true
			}
		case *jsoniq.LetClause:
			if outer[cl.Var] {
				return true
			}
		}
	}
	return false
}

// nestedClauses applies a nested FLWOR's clauses with real row elimination,
// the clause loop of the JOIN strategy and the semi form: for clauses
// flatten inner unless `allowing empty`, and where clauses filter.
func (tr *translator) nestedClauses(df *snowpark.DataFrame, f *jsoniq.FLWOR) (*snowpark.DataFrame, []snowpark.OrderSpec, error) {
	var orderSpecs []snowpark.OrderSpec
	for _, c := range f.Clauses {
		switch cl := c.(type) {
		case *jsoniq.ForClause:
			if _, ok := cl.In.(*jsoniq.Collection); ok {
				return nil, nil, errNestedCollection
			}
			col, ndf, err := tr.expr(df, cl.In)
			if err != nil {
				return nil, nil, err
			}
			alias := tr.fresh("f")
			df = ndf.Flatten(col, alias, cl.AllowEmpty)
			df = df.WithColumn(cl.Var, snowpark.FlattenValue(alias))
			if cl.PosVar != "" {
				df = df.WithColumn(cl.PosVar, snowpark.FlattenIndex(alias).Add(snowpark.LitInt(1)))
			}
		case *jsoniq.LetClause:
			col, ndf, err := tr.expr(df, cl.Expr)
			if err != nil {
				return nil, nil, err
			}
			df = ndf.WithColumn(cl.Var, col)
		case *jsoniq.WhereClause:
			var err error
			if df, err = tr.where(df, cl.Cond); err != nil {
				return nil, nil, err
			}
		case *jsoniq.OrderByClause:
			var err error
			df, orderSpecs, err = tr.nestedOrderBy(df, cl, orderSpecs)
			if err != nil {
				return nil, nil, err
			}
		default:
			return nil, nil, errNestedClause(c)
		}
	}
	return df, orderSpecs, nil
}

// nestedOrderBy materializes a nested order by clause's keys as columns and
// appends their specs, which order the ARRAY_AGG of the re-aggregation.
func (tr *translator) nestedOrderBy(df *snowpark.DataFrame, cl *jsoniq.OrderByClause, specs []snowpark.OrderSpec) (*snowpark.DataFrame, []snowpark.OrderSpec, error) {
	for _, k := range cl.Keys {
		col, ndf, err := tr.expr(df, k.Expr)
		if err != nil {
			return nil, nil, err
		}
		name := tr.fresh("ord")
		df = ndf.WithColumn(name, col)
		if k.Descending {
			specs = append(specs, snowpark.Desc(snowpark.Col(name)))
		} else {
			specs = append(specs, snowpark.Asc(snowpark.Col(name)))
		}
	}
	return df, specs, nil
}

var errNestedCollection = fmt.Errorf("core: nested queries over collections are not supported; hoist the collection into an outer for clause")

func errNestedClause(c jsoniq.Clause) error {
	return fmt.Errorf("core: %s clauses are not supported inside nested queries", c.Kind())
}

// regroup folds a nested query's rows back to one row per row ID: the
// nested aggregate plus ANY_VALUE of every outer column.
func regroup(df *snowpark.DataFrame, rid string, outerCols []string, agg snowpark.Column) (*snowpark.DataFrame, error) {
	aggs := make([]snowpark.Column, 0, len(outerCols)+1)
	for _, c := range outerCols {
		aggs = append(aggs, snowpark.AnyValue(colByName(c)).As(c))
	}
	aggs = append(aggs, agg)
	return df.GroupBy(snowpark.Col(rid)).Agg(aggs...)
}

// nestedAggregate builds the re-aggregation column. countCol is the
// strategy-specific row counter (COUNT_IF(keep) vs COUNT(*)).
func nestedAggregate(kind aggKind, value, countCol snowpark.Column, orderSpecs []snowpark.OrderSpec) (snowpark.Column, error) {
	switch kind {
	case aggArray:
		if len(orderSpecs) > 0 {
			return snowpark.ArrayAggOrdered(value, orderSpecs...), nil
		}
		return snowpark.ArrayAgg(value), nil
	case aggCount:
		return countCol, nil
	case aggSum:
		return snowpark.Sum(value), nil
	case aggAvg:
		return snowpark.Avg(value), nil
	case aggMin:
		return snowpark.Min(value), nil
	case aggMax:
		return snowpark.Max(value), nil
	}
	return snowpark.Column{}, fmt.Errorf("core: unknown aggregate kind %d", kind)
}
