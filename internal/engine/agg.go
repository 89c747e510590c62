package engine

import (
	"fmt"
	"sort"

	"jsonpark/internal/variant"
)

// accumulator folds rows of one group for one aggregate. Order keys are
// only supplied for ordered ARRAY_AGG.
type accumulator interface {
	add(v variant.Value, orderKeys []variant.Value) error
	result(descs []bool) variant.Value
}

func newAccumulator(spec AggSpec) accumulator {
	switch spec.Name {
	case "COUNT":
		if spec.Distinct {
			return &countDistinctAcc{seen: make(map[string]bool)}
		}
		return &countAcc{star: spec.Star}
	case "COUNT_IF":
		return &countIfAcc{}
	case "SUM":
		return &sumAcc{}
	case "AVG":
		return &avgAcc{}
	case "MIN":
		return &minMaxAcc{dir: -1}
	case "MAX":
		return &minMaxAcc{dir: 1}
	case "ANY_VALUE":
		return &anyValueAcc{}
	case "ARRAY_AGG":
		a := &arrayAggAcc{distinct: spec.Distinct}
		if spec.Distinct {
			a.seen = make(map[string]bool)
		}
		return a
	case "BOOLAND_AGG":
		return &boolAgg{isAnd: true}
	case "BOOLOR_AGG":
		return &boolAgg{}
	}
	return &errAcc{name: spec.Name}
}

type errAcc struct{ name string }

func (a *errAcc) add(variant.Value, []variant.Value) error {
	return fmt.Errorf("engine: unsupported aggregate %s", a.name)
}
func (a *errAcc) result([]bool) variant.Value { return variant.Null }

type countAcc struct {
	star bool
	n    int64
}

func (a *countAcc) add(v variant.Value, _ []variant.Value) error {
	if a.star || !v.IsNull() {
		a.n++
	}
	return nil
}
func (a *countAcc) result([]bool) variant.Value { return variant.Int(a.n) }

// countDistinctAcc dedups on the canonical binary group key (same
// equivalence classes as HashKey, but encoded into a reusable buffer so the
// map lookup on a seen value allocates nothing).
type countDistinctAcc struct {
	seen map[string]bool
	kbuf []byte
}

func (a *countDistinctAcc) add(v variant.Value, _ []variant.Value) error {
	if !v.IsNull() {
		a.kbuf = v.AppendGroupKey(a.kbuf[:0])
		if !a.seen[string(a.kbuf)] {
			a.seen[string(a.kbuf)] = true
		}
	}
	return nil
}
func (a *countDistinctAcc) result([]bool) variant.Value { return variant.Int(int64(len(a.seen))) }

type countIfAcc struct{ n int64 }

func (a *countIfAcc) add(v variant.Value, _ []variant.Value) error {
	if !v.IsNull() && truthySQL(v) {
		a.n++
	}
	return nil
}
func (a *countIfAcc) result([]bool) variant.Value { return variant.Int(a.n) }

type sumAcc struct {
	intSum   int64
	floatSum float64
	anyFloat bool
	n        int64
}

func (a *sumAcc) add(v variant.Value, _ []variant.Value) error {
	switch v.Kind() {
	case variant.KindNull:
		return nil
	case variant.KindInt:
		a.intSum += v.AsInt()
	case variant.KindFloat:
		a.floatSum += v.AsFloat()
		a.anyFloat = true
	default:
		return fmt.Errorf("engine: SUM over non-numeric value of type %s", v.Kind())
	}
	a.n++
	return nil
}

func (a *sumAcc) result([]bool) variant.Value {
	if a.n == 0 {
		return variant.Null
	}
	if a.anyFloat {
		return variant.Float(a.floatSum + float64(a.intSum))
	}
	return variant.Int(a.intSum)
}

type avgAcc struct {
	sum float64
	n   int64
}

func (a *avgAcc) add(v variant.Value, _ []variant.Value) error {
	if v.IsNull() {
		return nil
	}
	if !v.IsNumber() {
		return fmt.Errorf("engine: AVG over non-numeric value of type %s", v.Kind())
	}
	a.sum += v.AsFloat()
	a.n++
	return nil
}

func (a *avgAcc) result([]bool) variant.Value {
	if a.n == 0 {
		return variant.Null
	}
	return variant.Float(a.sum / float64(a.n))
}

type minMaxAcc struct {
	dir  int
	best variant.Value
	any  bool
}

func (a *minMaxAcc) add(v variant.Value, _ []variant.Value) error {
	if v.IsNull() {
		return nil
	}
	if !a.any || a.dir*variant.Compare(v, a.best) > 0 {
		a.best = v
		a.any = true
	}
	return nil
}

func (a *minMaxAcc) result([]bool) variant.Value {
	if !a.any {
		return variant.Null
	}
	return a.best
}

type anyValueAcc struct {
	v   variant.Value
	any bool
}

func (a *anyValueAcc) add(v variant.Value, _ []variant.Value) error {
	if !a.any {
		a.v = v
		a.any = true
	}
	return nil
}

func (a *anyValueAcc) result([]bool) variant.Value {
	if !a.any {
		return variant.Null
	}
	return a.v
}

// arrayAggAcc collects non-NULL values, optionally de-duplicating, and sorts
// by the WITHIN GROUP order keys at finalization. NULL inputs are skipped —
// the property the paper's KEEP-flag strategy relies on (§IV-C1).
type arrayAggAcc struct {
	distinct bool
	seen     map[string]bool // DISTINCT only
	kbuf     []byte
	vals     []variant.Value
	orders   [][]variant.Value
}

func (a *arrayAggAcc) add(v variant.Value, orderKeys []variant.Value) error {
	if v.IsNull() {
		return nil
	}
	if a.distinct {
		a.kbuf = v.AppendGroupKey(a.kbuf[:0])
		if a.seen[string(a.kbuf)] {
			return nil
		}
		a.seen[string(a.kbuf)] = true
	}
	a.vals = append(a.vals, v)
	if orderKeys != nil {
		a.orders = append(a.orders, orderKeys)
	}
	return nil
}

func (a *arrayAggAcc) result(descs []bool) variant.Value {
	if len(a.orders) == len(a.vals) && len(a.orders) > 0 {
		idx := make([]int, len(a.vals))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(x, y int) bool {
			ka, kb := a.orders[idx[x]], a.orders[idx[y]]
			for k := range ka {
				c := variant.Compare(ka[k], kb[k])
				if k < len(descs) && descs[k] {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		sorted := make([]variant.Value, len(a.vals))
		for i, j := range idx {
			sorted[i] = a.vals[j]
		}
		return variant.ArrayOf(sorted)
	}
	return variant.ArrayOf(append([]variant.Value(nil), a.vals...))
}

// boolAgg implements BOOLAND_AGG / BOOLOR_AGG over non-NULL inputs.
type boolAgg struct {
	isAnd bool
	acc   bool
	any   bool
}

func (a *boolAgg) add(v variant.Value, _ []variant.Value) error {
	if v.IsNull() {
		return nil
	}
	b := truthySQL(v)
	if !a.any {
		a.acc = b
		a.any = true
		return nil
	}
	if a.isAnd {
		a.acc = a.acc && b
	} else {
		a.acc = a.acc || b
	}
	return nil
}

func (a *boolAgg) result([]bool) variant.Value {
	if !a.any {
		return variant.Null
	}
	return variant.Bool(a.acc)
}

// mergeAccumulators folds src into dst. The parallel aggregate merges
// partial states in storage-partition index order, which equals input row
// order, so every merge below reproduces the sequential fold exactly.
// Only the aggregates admitted by aggsMergeable ever reach this function;
// anything else (SUM/AVG float folds, unknown aggregates) is rejected at
// physicalization and errors here as a guard.
func mergeAccumulators(dst, src accumulator) error {
	switch s := src.(type) {
	case *countAcc:
		d := dst.(*countAcc)
		d.n += s.n
	case *countIfAcc:
		d := dst.(*countIfAcc)
		d.n += s.n
	case *countDistinctAcc:
		d := dst.(*countDistinctAcc)
		for k := range s.seen {
			d.seen[k] = true
		}
	case *minMaxAcc:
		d := dst.(*minMaxAcc)
		if s.any {
			if err := d.add(s.best, nil); err != nil {
				return err
			}
		}
	case *anyValueAcc:
		d := dst.(*anyValueAcc)
		if !d.any && s.any {
			d.v = s.v
			d.any = true
		}
	case *boolAgg:
		d := dst.(*boolAgg)
		if s.any {
			if err := d.add(variant.Bool(s.acc), nil); err != nil {
				return err
			}
		}
	case *arrayAggAcc:
		d := dst.(*arrayAggAcc)
		if !d.distinct {
			d.vals = append(d.vals, s.vals...)
			d.orders = append(d.orders, s.orders...)
			break
		}
		// DISTINCT: re-check each later-partition value against the merged
		// seen set so first-occurrence dedup matches the sequential order.
		for i, v := range s.vals {
			var ord []variant.Value
			if len(s.orders) == len(s.vals) {
				ord = s.orders[i]
			}
			if err := d.add(v, ord); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("engine: aggregate %T is not mergeable", src)
	}
	return nil
}
