package jsonpark

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func exampleWarehouse(t *testing.T) *Warehouse {
	t.Helper()
	w := Open()
	if err := w.CreateCollection("orders", []string{"id", "customer", "items"}); err != nil {
		t.Fatal(err)
	}
	docs := []string{
		`{"id": 1, "customer": "ada", "items": [{"sku": "apple", "qty": 2, "price": 1.5}, {"sku": "pear", "qty": 1, "price": 2.0}]}`,
		`{"id": 2, "customer": "bob", "items": []}`,
		`{"id": 3, "customer": "ada", "items": [{"sku": "plum", "qty": 5, "price": 0.5}]}`,
	}
	for _, d := range docs {
		if err := w.LoadJSON("orders", d); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func TestWarehouseQuickstartFlow(t *testing.T) {
	w := exampleWarehouse(t)
	items, err := w.QueryItems(`
		for $o in collection("orders")
		for $i in $o.items[]
		where $i.qty gt 1
		return {"id": $o.id, "sku": $i.sku}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("items = %v", items)
	}
}

func TestWarehouseNestedTotalPerOrder(t *testing.T) {
	w := exampleWarehouse(t)
	for _, strat := range []Strategy{StrategyKeepFlag, StrategyJoin} {
		items, err := w.QueryItems(`
			for $o in collection("orders")
			let $total := sum(for $i in $o.items[] return $i.qty * $i.price)
			order by $o.id
			return {"id": $o.id, "total": $total}`, WithStrategy(strat))
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != 3 {
			t.Fatalf("rows = %v", items)
		}
		// Order 2 has no items: it must survive with total 0 (§IV-C).
		if got := items[1].Field("total").AsFloat(); got != 0 {
			t.Errorf("strategy %v: order 2 total = %v", strat, got)
		}
		if got := items[0].Field("total").AsFloat(); got != 5.0 {
			t.Errorf("strategy %v: order 1 total = %v", strat, got)
		}
	}
}

func TestWarehouseTranslateProducesSingleSQL(t *testing.T) {
	w := exampleWarehouse(t)
	sql, err := w.Translate(`for $o in collection("orders") return $o.id`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sql, "SELECT") {
		t.Errorf("sql = %s", sql)
	}
	// The engine accepts the exact text.
	if _, err := w.SQL(sql); err != nil {
		t.Fatalf("engine rejected translation: %v", err)
	}
}

func TestWarehouseInterpretedMatchesTranslated(t *testing.T) {
	w := exampleWarehouse(t)
	src := `for $o in collection("orders")
		group by $c := $o.customer
		order by $c
		return {"customer": $c, "orders": count($o)}`
	translated, err := w.QueryItems(src)
	if err != nil {
		t.Fatal(err)
	}
	interpreted, err := w.QueryInterpreted(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(translated) != len(interpreted) {
		t.Fatalf("row count mismatch: %d vs %d", len(translated), len(interpreted))
	}
	for i := range translated {
		if translated[i].HashKey() != interpreted[i].HashKey() {
			t.Errorf("row %d: %v vs %v", i, translated[i], interpreted[i])
		}
	}
}

func TestWarehouseMetricsExposed(t *testing.T) {
	w := exampleWarehouse(t)
	res, err := w.Query(`for $o in collection("orders") return $o.id`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.CompileTime <= 0 || res.Metrics.BytesScanned <= 0 {
		t.Errorf("metrics = %+v", res.Metrics)
	}
}

func TestWarehouseErrors(t *testing.T) {
	w := exampleWarehouse(t)
	if err := w.CreateCollection("orders", []string{"x"}); err == nil {
		t.Error("duplicate collection should fail")
	}
	if err := w.LoadJSON("orders", `{not json`); err == nil {
		t.Error("bad JSON should fail")
	}
	if err := w.LoadJSON("missing", `{}`); err == nil {
		t.Error("unknown collection should fail")
	}
	if _, err := w.Query(`for $x in`); err == nil {
		t.Error("syntax error should surface")
	}
	if _, err := w.Query(`for $o in collection("nope") return $o`); err == nil {
		t.Error("unknown collection in query should surface")
	}
}

func TestWarehouseExplain(t *testing.T) {
	w := exampleWarehouse(t)
	sql, err := w.Translate(`for $o in collection("orders") where $o.id gt 1 return $o.id`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := w.ExplainSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Scan orders") {
		t.Errorf("plan = %s", plan)
	}
}

// TestWarehouseConcurrentLoadAndQuery runs loads beside translated and
// interpreted queries; under -race it guards the document list that
// QueryInterpreted reads while LoadObject appends.
func TestWarehouseConcurrentLoadAndQuery(t *testing.T) {
	w := Open()
	if err := w.CreateCollection("live", []string{"id", "xs"}); err != nil {
		t.Fatal(err)
	}
	// The interpreter knows a collection from its first document on.
	if err := w.LoadJSON("live", `{"id": -1, "xs": []}`); err != nil {
		t.Fatal(err)
	}
	const loaders, perLoader = 3, 40
	const q = `for $d in collection("live") where exists(for $x in $d.xs[] where $x gt 0 return $x) return $d.id`
	var wg sync.WaitGroup
	errs := make(chan error, loaders+2)
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := 0; i < perLoader; i++ {
				doc := fmt.Sprintf(`{"id": %d, "xs": [%d]}`, l*perLoader+i, i%2)
				if err := w.LoadJSON("live", doc); err != nil {
					errs <- err
					return
				}
			}
		}(l)
	}
	for _, interp := range []bool{false, true} {
		wg.Add(1)
		go func(interp bool) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				var err error
				if interp {
					_, err = w.QueryInterpreted(q)
				} else {
					_, err = w.Query(q)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(interp)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	got, err := w.QueryItems(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := w.QueryInterpreted(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != loaders*perLoader/2 || len(want) != len(got) {
		t.Fatalf("after the loads: translated %d items, interpreted %d, want %d", len(got), len(want), loaders*perLoader/2)
	}
}

// TestLoadRejectsNonObjects: the library load path takes objects only. A
// scalar, array or string document returns an error and loads nothing, so
// both the translated and the interpreted query see the collection as
// before.
func TestLoadRejectsNonObjects(t *testing.T) {
	w := exampleWarehouse(t)
	const q = `for $o in collection("orders") return $o.id`
	snapshot := func() string {
		t.Helper()
		got, err := w.QueryItems(q)
		if err != nil {
			t.Fatal(err)
		}
		interp, err := w.QueryInterpreted(q)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(got, " | ", interp)
	}
	before := snapshot()
	for _, doc := range []string{`5`, `[1]`, `"s"`} {
		if err := w.LoadJSON("orders", doc); err == nil {
			t.Errorf("LoadJSON(%s) = nil, want an error", doc)
		}
		if after := snapshot(); after != before {
			t.Fatalf("after LoadJSON(%s): %s, want %s", doc, after, before)
		}
	}
}
