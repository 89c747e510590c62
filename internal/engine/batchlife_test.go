package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"jsonpark/internal/sqlast"
	"jsonpark/internal/sqlparse"
	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// flattenAggEngine loads rows documents with a four-element array each into
// one table, at the given batch size and sequential execution.
func flattenAggEngine(t *testing.T, batchSize, rows int) *Engine {
	t.Helper()
	e := New(WithBatchSize(batchSize), WithParallelism(1))
	tab, err := e.Catalog().CreateTable("bench", []string{"id", "grp", "items"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		doc := fmt.Sprintf(`{"id": %d, "grp": %d, "items": [%d, %d, %d, %d]}`, i, i%13, i, i+1, i+2, i+3)
		if err := tab.AppendObject(variant.MustParseJSON(doc)); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestFlattenPipelineAllocationBudget pins the steady state of FLATTEN →
// FILTER → PROJECT → AGGREGATE at batch size 1024: each further input batch
// (4,096 flattened rows in four output batches) costs a bounded number of
// allocations, independent of the rows it carries. The query's fixed costs
// (parse, plan, compile, the 13 groups) cancel in the difference between
// two table sizes.
func TestFlattenPipelineAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 40k documents")
	}
	const sql = `SELECT "grp", COUNT(*), SUM("w") FROM (SELECT "grp", "f".VALUE * 2 AS "w" FROM "bench", LATERAL FLATTEN(INPUT => "items") AS "f" WHERE "f".VALUE % 3 <> 0) GROUP BY "grp"`
	const batch, small, large = 1024, 8, 40
	allocs := func(batches int) float64 {
		e := flattenAggEngine(t, batch, batches*batch)
		plan, err := e.Explain(sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []string{"Flatten", "Filter", "Project", "Aggregate"} {
			if !strings.Contains(plan, op) {
				t.Fatalf("plan lacks %s:\n%s", op, plan)
			}
		}
		return testing.AllocsPerRun(3, func() {
			res, err := e.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 13 {
				t.Fatalf("got %d groups, want 13", len(res.Rows))
			}
		})
	}
	perBatch := (allocs(large) - allocs(small)) / (large - small)
	// Measured ≈ 35 (a few per operator and output batch). The bound is a
	// constant: one allocation per flattened row would be 4,096.
	const budget = 64
	t.Logf("allocations per input batch: %.1f", perBatch)
	if perBatch > budget {
		t.Errorf("%.1f allocations per input batch of %d rows, want at most %d", perBatch, batch, budget)
	}
}

// TestSortCopiesBatchesOnArrival pins the batch-lifetime contract at its one
// retaining consumer: a project emits its kernels' buffers and a flatten
// reuses its output vectors, so ORDER BY over either is only correct if the
// sort copies every batch it keeps. Each configuration must equal a golden
// computed here from the loaded documents.
func TestSortCopiesBatchesOnArrival(t *testing.T) {
	// multiPartEngine's documents: id i, items [i, 2i, 3i] unless i%3 == 0.
	type row struct{ id, k, x int }
	var computed, flattened []row
	for i := 0; i < 500; i++ {
		computed = append(computed, row{id: i, k: i * 7 % 101})
		if i%3 != 0 {
			for x, v := range []int{i, 2 * i, 3 * i} {
				flattened = append(flattened, row{id: i, k: v, x: x})
			}
		}
	}
	render := func(rows []row, withIndex bool) string {
		var b strings.Builder
		for _, r := range rows {
			fmt.Fprintf(&b, "%d\t%d\t", r.id, r.k)
			if withIndex {
				fmt.Fprintf(&b, "%d\t", r.x)
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	sort.SliceStable(computed, func(a, b int) bool {
		if computed[a].k != computed[b].k {
			return computed[a].k > computed[b].k
		}
		return computed[a].id < computed[b].id
	})
	sort.SliceStable(flattened, func(a, b int) bool {
		ra, rb := flattened[a], flattened[b]
		if ra.k != rb.k {
			return ra.k > rb.k
		}
		if ra.id != rb.id {
			return ra.id < rb.id
		}
		return ra.x < rb.x
	})
	cases := []struct {
		name, sql, want string
	}{
		{"computed", `SELECT "id", MOD("id" * 7, 101) AS "k" FROM "events" ORDER BY "k" DESC, "id"`,
			render(computed, false)},
		{"flatten", `SELECT "id", "f".VALUE AS "v", "f".INDEX AS "x" FROM "events", LATERAL FLATTEN(INPUT => "items") AS "f" ORDER BY "v" DESC, "id", "x"`,
			render(flattened, true)},
	}
	for _, bs := range []int{1, 3, 1024} {
		for _, par := range []int{1, 2} {
			e := multiPartEngine(t, WithBatchSize(bs), WithParallelism(par))
			for _, c := range cases {
				res, err := e.Query(c.sql)
				if err != nil {
					t.Fatalf("bs=%d par=%d %s: %v", bs, par, c.name, err)
				}
				if got := renderRows(res); got != c.want {
					t.Errorf("bs=%d par=%d %s: result differs from the golden (%d rows, want %d)",
						bs, par, c.name, len(res.Rows), strings.Count(c.want, "\n"))
				}
			}
		}
	}
}

// TestGetKernelMatchesFnGet is the contract table of the literal-bound GET
// kernels: for every input kind and key shape — string and integer literal
// keys (the direct Field and Index loops), other literal keys, and a key
// column (both fnGet) — the compiled kernel returns exactly fnGet's value
// at every active row.
func TestGetKernelMatchesFnGet(t *testing.T) {
	inputs := []string{
		`{"pt": 30.5, "eta": -1.2, "tags": [1, 2]}`,
		`{"a": 1, "b": 2, "c": 3, "d": 4, "e": 5, "f": 6, "g": 7, "h": 8, "pt": 9, "j": null}`,
		`{}`,
		`[10, "x", null, {"pt": 1}]`,
		`[]`,
		`null`,
		`"pt"`,
		`42`,
		`-2.5`,
		`true`,
	}
	keys := []string{`'pt'`, `'j'`, `'missing'`, `''`, `0`, `1`, `3`, `7`, `-1`, `1.0`, `NULL`, `TRUE`}
	keyCol := []string{`"pt"`, `1`, `"a"`, `0`, `null`, `"pt"`, `3`, `-1`, `1.5`, `"x"`}
	var xs, ks []variant.Value
	for i, in := range inputs {
		xs = append(xs, variant.MustParseJSON(in))
		ks = append(ks, variant.MustParseJSON(keyCol[i]))
	}
	sc := NewSchema([]string{"x", "k"})
	x := &sqlast.ColRef{Name: "x"}
	for _, sel := range [][]int{nil, {0, 3, 5, 7, 9}} {
		b := &vector.Batch{Cols: [][]variant.Value{xs, ks}, Sel: sel}
		for _, key := range append(keys, `"k"`) {
			q, err := sqlparse.Parse("SELECT GET(x, " + key + ") FROM t")
			if err != nil {
				t.Fatalf("parse GET(x, %s): %v", key, err)
			}
			e := q.(*sqlast.Select).Items[0].Expr
			call, ok := e.(*sqlast.FuncCall)
			if !ok {
				t.Fatalf("GET(x, %s) parsed as %T", key, e)
			}
			call.Args[0] = x
			fn, err := compileVec(nil, sc, call)
			if err != nil {
				t.Fatalf("compile GET(x, %s): %v", key, err)
			}
			got, err := fn(b)
			if err != nil {
				t.Fatalf("GET(x, %s): %v", key, err)
			}
			kfn, err := compileVec(nil, sc, call.Args[1])
			if err != nil {
				t.Fatalf("compile key %s: %v", key, err)
			}
			kv, err := kfn(b)
			if err != nil {
				t.Fatalf("key %s: %v", key, err)
			}
			b.ForEach(func(i int) {
				want, err := fnGet([]variant.Value{xs[i], kv[i]})
				if err != nil {
					t.Fatalf("fnGet: %v", err)
				}
				if !variant.BinaryEqual(got[i], want) || got[i].Kind() != want.Kind() {
					t.Errorf("GET(%s, %s) = %s, fnGet = %s", inputs[i], key, got[i].JSON(), want.JSON())
				}
			})
		}
	}
}
