package core

import (
	"sort"
	"strings"
	"testing"

	"jsonpark/internal/engine"
	"jsonpark/internal/jsoniq"
	"jsonpark/internal/runtime"
	"jsonpark/internal/snowpark"
	"jsonpark/internal/variant"
)

var adlRows = []string{
	`{"EVENT": 1, "MET": {"pt": 10.5}, "HLT": {"IsoMu24": true}, "Muon": [{"pt": 30.0, "eta": 0.5, "phi": 0.1, "charge": 1}, {"pt": 5.0, "eta": -1.5, "phi": 2.0, "charge": -1}], "Jet": [{"pt": 45.0, "eta": 0.9}, {"pt": 12.0, "eta": 2.2}]}`,
	`{"EVENT": 2, "MET": {"pt": 20.0}, "HLT": {"IsoMu24": false}, "Muon": [], "Jet": []}`,
	`{"EVENT": 3, "MET": {"pt": 35.5}, "HLT": {"IsoMu24": true}, "Muon": [{"pt": 50.0, "eta": 0.1, "phi": -1.0, "charge": -1}], "Jet": [{"pt": 60.0, "eta": -0.4}]}`,
	`{"EVENT": 4, "MET": {"pt": 40.0}, "HLT": {"IsoMu24": false}, "Muon": [{"pt": 8.0, "eta": 1.0, "phi": 0.0, "charge": 1}, {"pt": 9.0, "eta": 1.2, "phi": 0.5, "charge": 1}, {"pt": 60.0, "eta": -0.2, "phi": 1.5, "charge": -1}], "Jet": [{"pt": 41.0, "eta": 0.0}, {"pt": 42.0, "eta": 0.1}, {"pt": 7.0, "eta": -3.0}]}`,
}

func adlDocs() []variant.Value {
	docs := make([]variant.Value, len(adlRows))
	for i, r := range adlRows {
		docs[i] = variant.MustParseJSON(r)
	}
	return docs
}

func newSession(t *testing.T) *snowpark.Session {
	t.Helper()
	eng := engine.New()
	adl, err := eng.Catalog().CreateTable("adl", []string{"EVENT", "MET", "HLT", "Muon", "Jet"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range adlDocs() {
		if err := adl.AppendObject(d); err != nil {
			t.Fatal(err)
		}
	}
	lo, err := eng.Catalog().CreateTable("lineorder", []string{"lo_orderdate", "lo_revenue", "lo_discount"})
	if err != nil {
		t.Fatal(err)
	}
	dates, err := eng.Catalog().CreateTable("date", []string{"d_datekey", "d_year"})
	if err != nil {
		t.Fatal(err)
	}
	loRows := [][]int64{{19940101, 100, 2}, {19940102, 200, 5}, {19950101, 300, 1}, {19940101, 400, 7}}
	for _, r := range loRows {
		if err := lo.Append([]variant.Value{variant.Int(r[0]), variant.Int(r[1]), variant.Int(r[2])}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range [][]int64{{19940101, 1994}, {19940102, 1994}, {19950101, 1995}} {
		if err := dates.Append([]variant.Value{variant.Int(r[0]), variant.Int(r[1])}); err != nil {
			t.Fatal(err)
		}
	}
	return snowpark.NewSession(eng)
}

// runBoth executes the query through the translator (both strategies) and
// the interpreted runtime, requiring identical result multisets.
func runBoth(t *testing.T, src string) []variant.Value {
	t.Helper()
	interp := runtime.New(runtime.ProfileDefault)
	interp.LoadCollection("adl", adlDocs())
	want, err := interp.Run(jsoniq.MustParse(src))
	if err != nil {
		t.Fatalf("interpreted run: %v", err)
	}
	for _, strat := range []Strategy{StrategyKeepFlag, StrategyJoin} {
		sess := newSession(t)
		res, err := Translate(sess, src, Options{Strategy: strat})
		if err != nil {
			t.Fatalf("translate (%v): %v", strat, err)
		}
		got, err := res.DataFrame.Collect()
		if err != nil {
			t.Fatalf("collect (%v): %v\nSQL: %s", strat, err, res.SQL)
		}
		items := make([]variant.Value, len(got.Rows))
		for i, row := range got.Rows {
			items[i] = row[0]
		}
		assertSameItems(t, string(rune('0'+int(strat)))+":"+src, items, want)
	}
	return want
}

// assertSameItems compares two item multisets (order-insensitive, §IV-E).
func assertSameItems(t *testing.T, label string, got, want []variant.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d items, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	g := make([]string, len(got))
	w := make([]string, len(want))
	for i := range got {
		g[i] = got[i].HashKey()
		w[i] = want[i].HashKey()
	}
	sort.Strings(g)
	sort.Strings(w)
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: multiset mismatch\ngot:  %v\nwant: %v", label, got, want)
		}
	}
}

func TestTranslateListing1(t *testing.T) {
	runBoth(t, `for $e in collection("adl")
		for $jet in $e.Jet[]
		where abs($jet.eta) lt 1
		return $jet.pt`)
}

func TestTranslateSimpleProjection(t *testing.T) {
	runBoth(t, `for $e in collection("adl") return $e.MET.pt`)
}

func TestTranslateWhereOnTopLevel(t *testing.T) {
	runBoth(t, `for $e in collection("adl") where $e.HLT.IsoMu24 return $e.EVENT`)
}

func TestTranslateNestedQueryListing4(t *testing.T) {
	// Listing 4: nested query in a let clause; empty arrays and all-fail
	// predicates must NOT eliminate parent objects (§IV-C).
	runBoth(t, `for $e in collection("adl")
		let $filtered := (
			for $m in $e.Muon[]
			where $m.pt gt 10
			return $m.pt
		)
		return {"ev": $e.EVENT, "n": size($filtered), "vals": $filtered}`)
}

func TestTranslateNestedQueryAllFailPredicate(t *testing.T) {
	// Every muon fails: all events must still appear with empty arrays.
	out := runBoth(t, `for $e in collection("adl")
		let $none := (for $m in $e.Muon[] where $m.pt gt 1000 return $m)
		return size($none)`)
	if len(out) != 4 {
		t.Fatalf("expected 4 items, got %v", out)
	}
	for _, v := range out {
		if v.AsInt() != 0 {
			t.Errorf("size = %v, want 0", v)
		}
	}
}

func TestTranslateAggregatesOverNested(t *testing.T) {
	runBoth(t, `for $e in collection("adl")
		return {"ev": $e.EVENT,
			"cnt": count(for $m in $e.Muon[] where $m.charge gt 0 return $m),
			"sum": sum(for $m in $e.Muon[] return $m.pt),
			"mx": max(for $m in $e.Muon[] return $m.pt)}`)
}

func TestTranslateExistsEmpty(t *testing.T) {
	runBoth(t, `for $e in collection("adl")
		where exists(for $m in $e.Muon[] where $m.pt gt 40 return $m)
		return $e.EVENT`)
	runBoth(t, `for $e in collection("adl")
		where empty($e.Muon[])
		return $e.EVENT`)
}

func TestTranslateGroupByHistogram(t *testing.T) {
	runBoth(t, `for $e in collection("adl")
		group by $bin := floor($e.MET.pt div 20.0)
		order by $bin
		return {"bin": $bin, "count": count($e)}`)
}

func TestTranslateGroupByAggregateDetection(t *testing.T) {
	sess := newSession(t)
	res, err := Translate(sess, `for $e in collection("adl")
		group by $bin := floor($e.MET.pt div 20.0)
		return {"bin": $bin, "count": count($e), "sum": sum($e.MET.pt)}`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate detection must avoid ARRAY_AGG of whole events.
	if strings.Contains(res.SQL, "ARRAY_AGG") {
		t.Errorf("expected native aggregates, found ARRAY_AGG:\n%s", res.SQL)
	}
	if !strings.Contains(res.SQL, "COUNT(") || !strings.Contains(res.SQL, "SUM(") {
		t.Errorf("expected COUNT and SUM in SQL:\n%s", res.SQL)
	}
}

func TestTranslateOrderByAndPositional(t *testing.T) {
	// Per-event argmin via ordered nested query + positional access (the Q6
	// pattern): highest-pt muon per event.
	runBoth(t, `for $e in collection("adl")
		where exists($e.Muon[])
		let $best := (for $m in $e.Muon[] order by $m.pt descending return $m.pt)[[1]]
		return {"ev": $e.EVENT, "best": $best}`)
}

func TestTranslateRangeFor(t *testing.T) {
	runBoth(t, `for $e in collection("adl")
		let $n := size($e.Muon)
		let $pairs := (
			for $i in 1 to $n
			for $j in 1 to $n
			where $i lt $j
			return $e.Muon[[$i]].pt + $e.Muon[[$j]].pt
		)
		return {"ev": $e.EVENT, "npairs": size($pairs)}`)
}

func TestTranslateJoinAcrossCollections(t *testing.T) {
	src := `for $l in collection("lineorder"), $d in collection("date")
		where $l.lo_orderdate eq $d.d_datekey and $d.d_year eq 1994
		return $l.lo_revenue`
	sess := newSession(t)
	res, err := Translate(sess, src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.DataFrame.Collect()
	if err != nil {
		t.Fatalf("%v\nSQL: %s", err, res.SQL)
	}
	if len(got.Rows) != 3 {
		t.Fatalf("rows = %v", got.Rows)
	}
	// The optimizer must execute this as a hash join, not a nested loop.
	plan, err := sess.Engine().Explain(res.SQL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "INNER Join keys=1") {
		t.Errorf("expected hash equi-join:\n%s", plan)
	}
}

func TestTranslateTopLevelAggregate(t *testing.T) {
	src := `sum(for $l in collection("lineorder")
		where $l.lo_discount ge 2 and $l.lo_discount le 5
		return $l.lo_revenue * $l.lo_discount)`
	sess := newSession(t)
	res, err := Translate(sess, src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.DataFrame.Collect()
	if err != nil {
		t.Fatalf("%v\nSQL: %s", err, res.SQL)
	}
	if len(got.Rows) != 1 || got.Rows[0][0].AsInt() != 100*2+200*5 {
		t.Fatalf("sum = %v", got.Rows)
	}
}

func TestTranslateIfAndArithmetic(t *testing.T) {
	runBoth(t, `for $e in collection("adl")
		return if ($e.MET.pt gt 20) then $e.MET.pt * 2 else -$e.MET.pt`)
}

func TestTranslateObjectAndArrayConstructors(t *testing.T) {
	runBoth(t, `for $e in collection("adl")
		return {"id": $e.EVENT, "pair": [$e.MET.pt, $e.MET.pt + 1]}`)
}

func TestTranslateDeepNesting(t *testing.T) {
	// Nested query inside a nested query.
	runBoth(t, `for $e in collection("adl")
		let $perMuon := (
			for $m in $e.Muon[]
			return count(for $j in $e.Jet[] where $j.pt gt $m.pt return $j)
		)
		return {"ev": $e.EVENT, "c": $perMuon}`)
}

func TestTranslateMathFunctions(t *testing.T) {
	runBoth(t, `for $e in collection("adl")
		for $m in $e.Muon[]
		return sqrt($m.pt * $m.pt) + cos($m.phi) + sinh($m.eta)`)
}

func TestKeepFlagVsJoinSQLShapes(t *testing.T) {
	src := `for $e in collection("adl")
		let $f := (for $m in $e.Muon[] where $m.pt gt 10 return $m)
		return size($f)`
	sess := newSession(t)
	keep, err := Translate(sess, src, Options{Strategy: StrategyKeepFlag})
	if err != nil {
		t.Fatal(err)
	}
	join, err := Translate(sess, src, Options{Strategy: StrategyJoin})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(keep.SQL, "OUTER => TRUE") {
		t.Errorf("keep-flag SQL should use outer flatten:\n%s", keep.SQL)
	}
	if !strings.Contains(join.SQL, "LEFT OUTER JOIN") {
		t.Errorf("join SQL should contain a left outer join:\n%s", join.SQL)
	}
	if strings.Contains(join.SQL, "OUTER => TRUE") {
		t.Errorf("join strategy should flatten inner (proactive elimination):\n%s", join.SQL)
	}
}

func TestTranslationCensusPopulated(t *testing.T) {
	sess := newSession(t)
	res, err := Translate(sess, `for $e in collection("adl")
		for $jet in $e.Jet[]
		where abs($jet.eta) lt 1
		return $jet.pt`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Census
	if c.FLWOR != 3 { // for, for+where chained under return = 2 fors + where + return = 4? counted below
		// The query has clauses: for, for, where, return → 4 FLWOR iterators.
		if c.FLWOR != 4 {
			t.Errorf("FLWOR iterators = %d", c.FLWOR)
		}
	}
	if c.Other == 0 || c.Total() != c.FLWOR+c.Other {
		t.Errorf("census = %+v", c)
	}
}

func TestTranslateErrors(t *testing.T) {
	sess := newSession(t)
	bad := []string{
		`1 + 2`,                      // not a FLWOR
		`for $x in 1 to 3 return $x`, // first for must read a collection
		`for $e in collection("missing") return $e`,                                      // unknown table
		`for $e in collection("adl") return frobnicate($e)`,                              // unknown function
		`for $e in collection("adl") count $c group by $q := 1 return collection("adl")`, // collection in expr
		`let $x := 1 where $x eq 1 for $e in collection("adl") return $e`,                // where before any for
	}
	for _, src := range bad {
		if _, err := Translate(sess, src, Options{}); err == nil {
			t.Errorf("Translate(%q) succeeded, want error", src)
		}
	}
}

func TestTranslateAllowingEmpty(t *testing.T) {
	runBoth(t, `for $e in collection("adl")
		for $m allowing empty in $e.Muon[]
		return $e.EVENT`)
}

func TestTranslateLetChain(t *testing.T) {
	runBoth(t, `for $e in collection("adl")
		let $a := $e.MET.pt
		let $b := $a * 2
		let $c := $b + $a
		return $c`)
}

func TestTranslateSumOverArrayValue(t *testing.T) {
	// sum over a let-bound array (synthetic FLWOR wrapping).
	runBoth(t, `for $e in collection("adl")
		let $pts := (for $m in $e.Muon[] return $m.pt)
		return sum($pts)`)
}
