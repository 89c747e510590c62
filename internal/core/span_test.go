package core_test

import (
	"testing"

	"jsonpark/internal/adl"
	"jsonpark/internal/core"
	"jsonpark/internal/engine"
	"jsonpark/internal/hepdata"
	"jsonpark/internal/obsv"
	"jsonpark/internal/snowpark"
)

// TestTranslateSpanReportsSemiForm: core.translate reports how many nested
// FLWORs it lowered and how many took the semi form. q4's count ge 2 and
// q5's exists feed the top-level where; q7's empty() keeps the strategy's
// form.
func TestTranslateSpanReportsSemiForm(t *testing.T) {
	eng := engine.New()
	if _, err := hepdata.Load(eng, "adl", 1, 20); err != nil {
		t.Fatal(err)
	}
	sess := snowpark.NewSession(eng)
	want := map[string][2]string{"q4": {"1", "1"}, "q5": {"1", "1"}, "q7": {"3", "0"}}
	seen := 0
	for _, q := range adl.Queries() {
		w, ok := want[q.ID]
		if !ok {
			continue
		}
		seen++
		for _, strat := range []core.Strategy{core.StrategyKeepFlag, core.StrategyJoin} {
			tr := obsv.NewTracer(1).Start("query")
			if _, err := core.Translate(sess, q.JSONiq, core.Options{Strategy: strat, Span: tr.Root}); err != nil {
				t.Fatal(err)
			}
			attrs := map[string]string{}
			tr.Finish().Root.Walk(func(_ int, sd obsv.SpanData) {
				if sd.Name == "core.translate" {
					for _, a := range sd.Attrs {
						attrs[a.Key] = a.Value
					}
				}
			})
			if attrs["nested"] != w[0] || attrs["semi"] != w[1] {
				t.Errorf("%s (%v): nested=%s semi=%s, want nested=%s semi=%s",
					q.ID, strat, attrs["nested"], attrs["semi"], w[0], w[1])
			}
		}
	}
	if seen != len(want) {
		t.Fatalf("found %d of the queries %v", seen, want)
	}
}
