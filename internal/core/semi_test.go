package core

import (
	"strconv"
	"strings"
	"testing"

	"jsonpark/internal/engine"
	"jsonpark/internal/jsoniq"
	"jsonpark/internal/obsv"
	"jsonpark/internal/runtime"
	"jsonpark/internal/snowpark"
	"jsonpark/internal/variant"
)

// edgeRows are the §IV-C erroneous-object-elimination edge cases: an empty
// array, a missing field, a null field, a null member, an inner predicate
// that fails for every element, and zero divisors behind a guarding where.
var edgeRows = []string{
	`{"id": 1, "d": 1, "a": []}`,
	`{"id": 2, "d": 2}`,
	`{"id": 3, "d": 0, "a": null}`,
	`{"id": 4, "d": 5, "a": [null, {"x": 1, "d": 0}]}`,
	`{"id": 5, "d": 20, "a": [{"x": -1, "d": 1}, {"x": -2, "d": 2}]}`,
	`{"id": 6, "d": 3, "a": [{"x": 3, "d": 0}, {"x": 4, "d": 5}, {"x": 7, "d": 1}]}`,
	`{"id": 7, "d": 4, "a": [{"x": 2, "d": 2}, {"x": 5, "d": 0}]}`,
}

func edgeDocs() []variant.Value {
	docs := make([]variant.Value, len(edgeRows))
	for i, r := range edgeRows {
		docs[i] = variant.MustParseJSON(r)
	}
	return docs
}

func edgeSession(t *testing.T) *snowpark.Session {
	t.Helper()
	eng := engine.New()
	tab, err := eng.Catalog().CreateTable("edge", []string{"id", "d", "a"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range edgeDocs() {
		if err := tab.AppendObject(d); err != nil {
			t.Fatal(err)
		}
	}
	return snowpark.NewSession(eng)
}

// translateTraced translates src and returns the result with the
// core.translate span's attributes.
func translateTraced(t *testing.T, sess *snowpark.Session, src string, strat Strategy) (*Result, map[string]string) {
	t.Helper()
	tr := obsv.NewTracer(1).Start("query")
	res, err := Translate(sess, src, Options{Strategy: strat, Span: tr.Root})
	if err != nil {
		t.Fatalf("translate (%v): %v\n%s", strat, err, src)
	}
	attrs := map[string]string{}
	tr.Finish().Root.Walk(func(_ int, sd obsv.SpanData) {
		if sd.Name == "core.translate" {
			for _, a := range sd.Attrs {
				attrs[a.Key] = a.Value
			}
		}
	})
	return res, attrs
}

// TestSemiFormDifferential is the semi form's proof obligation: on the
// edge documents every query must return the interpreter's items under
// both strategies. Positive consumers (false at count 0) take the semi
// form; negative ones keep the strategy's COUNT_IF / left-join form.
func TestSemiFormDifferential(t *testing.T) {
	const nq = `(for $m in $e.a[] where $m.x gt 0 return $m)`
	cases := []struct {
		name  string
		where string
		// semi is the number of semi-form nested queries under keep-flag
		// and join.
		keepSemi, joinSemi int
	}{
		{"exists", `exists` + nq, 1, 1},
		{"count ge 1", `count` + nq + ` ge 1`, 1, 1},
		{"count ge 2", `count` + nq + ` ge 2`, 1, 1},
		{"count gt 0", `count` + nq + ` gt 0`, 1, 1},
		{"count eq 1", `count` + nq + ` eq 1`, 1, 1},
		{"conjunct after guard", `$e.d ne 0 and exists` + nq, 1, 1},
		{"two semi conjuncts", `exists` + nq + ` and count(for $m in $e.a[] where $m.d gt 1 return 1) ge 1`, 2, 2},
		{"allowing empty", `exists(for $m allowing empty in $e.a[] return 1)`, 1, 1},
		{"stacked guard inside", `exists(for $m in $e.a[] where $m.d ne 0 where 10 div $m.d gt 1 return 1)`, 1, 1},
		{"semi inside semi", `exists(for $m in $e.a[] where exists(for $n in $e.a[] where $n.x gt $m.x return 1) return 1)`, 2, 2},
		{"empty", `empty` + nq, 0, 0},
		{"count lt 2", `count` + nq + ` lt 2`, 0, 0},
		{"count eq 0", `count` + nq + ` eq 0`, 0, 0},
		{"count ge 0", `count` + nq + ` ge 0`, 0, 0},
		{"not exists", `not(exists` + nq + `)`, 0, 0},
		{"exists or", `exists` + nq + ` or $e.d eq 2`, 0, 0},
		{"count plus", `count` + nq + ` + 1 ge 2`, 0, 0},
		{"stacked guard top level", `$e.d ne 0 where 10 div $e.d gt 1`, 0, 0},
	}
	interp := runtime.New(runtime.ProfileDefault)
	interp.LoadCollection("edge", edgeDocs())
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := `for $e in collection("edge") where ` + c.where + ` order by $e.id return $e.id`
			assertMatchesInterpreter(t, interp, src, map[Strategy]int{StrategyKeepFlag: c.keepSemi, StrategyJoin: c.joinSemi})
		})
	}

	// An exists inside a nested where: a KEEP nested where keeps each
	// object's representative row, so only the join strategy may use the
	// semi form there.
	t.Run("exists inside nested where", func(t *testing.T) {
		src := `for $e in collection("edge")
			let $n := count(for $m in $e.a[] where exists(for $k in $e.a[] where $k.x gt $m.x return 1) return 1)
			order by $e.id
			return {"id": $e.id, "n": $n}`
		assertMatchesInterpreter(t, interp, src, map[Strategy]int{StrategyKeepFlag: 0, StrategyJoin: 1})
	})
	// Stacked guarded wheres in a nested query that is not counted by a
	// where: the KEEP flag and the JOIN filters must both honour the guard.
	t.Run("stacked guard in let", func(t *testing.T) {
		src := `for $e in collection("edge")
			let $n := count(for $m in $e.a[] where $m.d ne 0 where 10 div $m.d gt 1 return 1)
			return {"id": $e.id, "n": $n}`
		assertMatchesInterpreter(t, interp, src, map[Strategy]int{StrategyKeepFlag: 0, StrategyJoin: 0})
	})
	// A nested variable that rebinds an outer one binds to a fresh column,
	// so the regroup (KEEP, semi form) and the join back (JOIN) carry the
	// outer value, under every form.
	shadowing := []struct {
		name               string
		src                string
		keepSemi, joinSemi int
	}{
		{"rebound outer variable", `for $e in collection("edge")
			let $m := $e.id
			where exists(for $m in $e.a[] where $m.x gt 0 return 1)
			order by $e.id
			return {"id": $e.id, "m": $m}`, 1, 1},
		{"rebound let, keep and join", `for $e in collection("edge")
			let $m := $e.id
			where count(for $m in $e.a[] where $m.x gt 1 return $m) ge 0
			order by $e.id
			return {"id": $e.id, "m": $m}`, 0, 0},
		{"rebound by a nested let", `for $e in collection("edge")
			let $m := $e.d
			let $n := count(for $y in $e.a[] let $m := $y.x where $m gt 0 return $m)
			order by $e.id
			return {"id": $e.id, "m": $m, "n": $n}`, 0, 0},
		{"rebound position variable", `for $e in collection("edge")
			let $i := $e.id
			where exists(for $m at $i in $e.a[] where $i ge 2 return 1)
			order by $e.id
			return {"id": $e.id, "i": $i}`, 1, 1},
		{"rebound collection variable", `for $e in collection("edge")
			where exists(for $e in $e.a[] where $e.x gt 0 return 1)
			order by $e.id
			return {"id": $e.id, "d": $e.d}`, 1, 1},
		{"rebound twice across levels", `for $e in collection("edge")
			let $m := $e.id
			let $n := count(for $m in $e.a[] where exists(for $m in $e.a[] where $m.x gt 2 return 1) return $m)
			order by $e.id
			return {"id": $e.id, "m": $m, "n": $n}`, 0, 1},
	}
	for _, c := range shadowing {
		t.Run(c.name, func(t *testing.T) {
			assertMatchesInterpreter(t, interp, c.src, map[Strategy]int{StrategyKeepFlag: c.keepSemi, StrategyJoin: c.joinSemi})
		})
	}
}

func assertMatchesInterpreter(t *testing.T, interp *runtime.Engine, src string, wantSemi map[Strategy]int) {
	t.Helper()
	want, err := interp.Run(jsoniq.Rewrite(jsoniq.MustParse(src)))
	if err != nil {
		t.Fatalf("interpreted run: %v", err)
	}
	for _, strat := range []Strategy{StrategyKeepFlag, StrategyJoin} {
		res, attrs := translateTraced(t, edgeSession(t), src, strat)
		out, err := res.DataFrame.Collect()
		if err != nil {
			t.Fatalf("collect (%v): %v\nSQL: %s", strat, err, res.SQL)
		}
		got := make([]variant.Value, len(out.Rows))
		for i, row := range out.Rows {
			got[i] = row[0]
		}
		assertSameItems(t, strat.String(), got, want)
		if attrs["semi"] != strconv.Itoa(wantSemi[strat]) {
			t.Errorf("%v: semi = %s, want %d\nSQL: %s", strat, attrs["semi"], wantSemi[strat], res.SQL)
		}
		// Without the semi form, nested counts keep the strategy's shape.
		shape := map[Strategy]string{StrategyKeepFlag: "COUNT_IF", StrategyJoin: "LEFT OUTER JOIN"}[strat]
		if wantSemi[strat] == 0 && attrs["nested"] != "0" && !strings.Contains(res.SQL, shape) {
			t.Errorf("%v without the semi form should use %s:\n%s", strat, shape, res.SQL)
		}
	}
}

// TestKeepFlagCountsNullMembers: a JSON null array member is an item; only
// the padding row of the OUTER flatten (NULL index) is not.
func TestKeepFlagCountsNullMembers(t *testing.T) {
	interp := runtime.New(runtime.ProfileDefault)
	interp.LoadCollection("edge", edgeDocs())
	src := `for $e in collection("edge")
		order by $e.id
		return {"id": $e.id, "n": count(for $m in $e.a[] return 1)}`
	assertMatchesInterpreter(t, interp, src, map[Strategy]int{})
	out, err := interp.Run(jsoniq.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	if n := out[3].Field("n").AsInt(); n != 2 {
		t.Fatalf(`{"a": [null, {...}]} counts %d members, want 2`, n)
	}
}
