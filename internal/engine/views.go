package engine

// Incrementally maintained materialized views. A view is registered from SQL
// text whose plan is a mergeable aggregation — the same fragment the
// parallel aggregate admits (aggsMergeable accumulators, stateless grouping,
// a stateless Filter/Project/Flatten pipeline over one scan) — optionally
// under a stateless Project/Sort/Limit/Filter suffix. The view retains the
// aggregation's accumulator state between queries; a refresh scans only the
// storage partitions sealed since the last refresh (partitions are immutable
// and the partition list is append-only, so "new data" is exactly a suffix
// of the pinned partition list) and folds the delta state in with
// mergeAccumulators.
//
// Correctness mirrors the parallel aggregate's proof: delta partitions come
// strictly after every previously absorbed partition, so merging delta
// partials into the retained state in delta first-seen order reproduces the
// sequential row-order fold exactly — which is why SUM/AVG (non-associative
// float folds) are rejected along with everything else aggsMergeable
// excludes. First-seen group output order is preserved by stamping each new
// group with (absorbed-partition watermark << 32 | delta insertion seq):
// watermarks grow monotonically across refreshes, so appending new groups
// keeps the retained order sorted without re-sorting old groups.
//
// The suffix above the aggregate is replayed from scratch on every query —
// it is cheap (it runs over groups, not rows) and keeps ORDER BY / LIMIT /
// HAVING semantics byte-identical to the cold query.

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"jsonpark/internal/sqlparse"
	"jsonpark/internal/variant"
)

// viewRowsNode replays a view's aggregate output rows so the stateless
// suffix executes through the ordinary operators.
type viewRowsNode struct {
	schema *Schema
	rows   [][]variant.Value
}

func (n *viewRowsNode) Schema() *Schema { return n.schema }

// matView is one registered materialized view: the decomposed plan plus the
// retained accumulator state. All fields past the immutable header are
// guarded by mu — refresh and emit run under it.
type matView struct {
	name    string
	sql     string
	eng     *Engine
	columns []string

	// Decomposed plan: suffix is the stateless operator chain above the
	// aggregate in root-first order; scan/stages are the aggregate's input
	// pipeline (execution order), shared with the parallel aggregate's
	// decomposition.
	suffix []Node
	agg    *AggregateNode
	scan   *ScanNode
	stages []Node

	mu sync.Mutex
	// groups/order are the retained merged accumulator state, order sorted by
	// stamp (sequential first-seen output order).
	groups map[string]*aggGroup
	order  []*aggGroup
	// emitAggs carries the aggregate descriptors for finalization; compiled
	// once at registration (expressions hold state, but descs are static).
	emitAggs []compiledAgg
	// partsDone is the absorbed-partition watermark into the table's
	// append-only partition list; version the table version last observed.
	partsDone int
	version   int64
	// Refresh accounting for introspection.
	refreshes  int64
	deltaParts int64
}

// viewRegistry holds an engine's materialized views by name.
type viewRegistry struct {
	mu    sync.Mutex
	views map[string]*matView
}

// ViewInfo describes one registered view for introspection (jsqd's /views).
type ViewInfo struct {
	Name    string   `json:"name"`
	SQL     string   `json:"sql"`
	Table   string   `json:"table"`
	Columns []string `json:"columns"`
	// Groups is the retained group count; PartsDone the absorbed-partition
	// watermark; Refreshes how many refreshes ran; DeltaParts the total
	// partitions scanned incrementally (vs. Refreshes*PartsDone for full
	// recomputation).
	Groups     int   `json:"groups"`
	PartsDone  int   `json:"parts_done"`
	Refreshes  int64 `json:"refreshes"`
	DeltaParts int64 `json:"delta_parts"`
}

// CreateView registers a materialized view over the SQL query. The query's
// optimized logical plan must be a mergeable aggregation (the
// parallelAggEligible fragment: COUNT/COUNT_IF/MIN/MAX/ANY_VALUE/
// BOOLAND_AGG/BOOLOR_AGG/ARRAY_AGG with stateless arguments and grouping,
// over a stateless Filter/Project/Flatten pipeline on one table) optionally
// under stateless Project/Sort/Limit/Filter operators. Anything else —
// SUM/AVG (float folds don't merge exactly), joins, unions, stateful
// expressions — is rejected so incremental results stay byte-identical to
// full recomputation.
func (e *Engine) CreateView(name, sql string) error {
	if name == "" {
		return fmt.Errorf("engine: view name must not be empty")
	}
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return err
	}
	pl := &planner{catalog: e.catalog}
	plan, err := pl.Build(q)
	if err != nil {
		return err
	}
	plan = optimize(plan)
	v, err := e.decomposeView(name, sql, plan)
	if err != nil {
		return err
	}
	e.views.mu.Lock()
	defer e.views.mu.Unlock()
	if _, exists := e.views.views[name]; exists {
		return fmt.Errorf("engine: view %q already exists", name)
	}
	if e.views.views == nil {
		e.views.views = make(map[string]*matView)
	}
	e.views.views[name] = v
	return nil
}

// decomposeView splits the optimized plan into suffix + aggregate + input
// pipeline and validates mergeability.
func (e *Engine) decomposeView(name, sql string, plan Node) (*matView, error) {
	var suffix []Node
	n := plan
walk:
	for {
		switch x := n.(type) {
		case *ProjectNode:
			if anyExprStateful(x.Exprs) {
				return nil, fmt.Errorf("engine: view %q: stateful projection above the aggregate", name)
			}
			suffix = append(suffix, x)
			n = x.Input
		case *FilterNode:
			if exprStateful(x.Cond) {
				return nil, fmt.Errorf("engine: view %q: stateful filter above the aggregate", name)
			}
			suffix = append(suffix, x)
			n = x.Input
		case *SortNode:
			for _, k := range x.Keys {
				if exprStateful(k.Expr) {
					return nil, fmt.Errorf("engine: view %q: stateful sort key above the aggregate", name)
				}
			}
			suffix = append(suffix, x)
			n = x.Input
		case *LimitNode:
			suffix = append(suffix, x)
			n = x.Input
		case *AggregateNode:
			break walk
		default:
			return nil, fmt.Errorf("engine: view %q: plan node %T is not incrementally maintainable (need a mergeable aggregation)", name, n)
		}
	}
	agg := n.(*AggregateNode)
	if !aggsMergeable(agg.Aggs) {
		return nil, fmt.Errorf("engine: view %q: aggregates are not mergeable (SUM/AVG and unknown aggregates cannot delta-merge exactly)", name)
	}
	if anyExprStateful(agg.GroupBy) {
		return nil, fmt.Errorf("engine: view %q: stateful grouping expression", name)
	}
	scan, stages, ok := pipelineStages(agg.Input)
	if !ok {
		return nil, fmt.Errorf("engine: view %q: aggregate input is not a stateless single-table pipeline", name)
	}
	// Compile once against a throwaway context: validates every expression at
	// registration time and yields the static aggregate descriptors emit needs
	// before the first refresh.
	vctx := &execContext{metrics: &Metrics{}, batchSize: e.batchSize, parallelism: 1, mergeParts: 1, acct: newMemAccountant(0)}
	if vctx.batchSize <= 0 {
		vctx.batchSize = 1024
	}
	ev, err := compileAggEval(vctx, agg)
	if err != nil {
		return nil, err
	}
	if scan.Filter != nil {
		if _, err := compileVec(vctx, scan.Schema(), scan.Filter); err != nil {
			return nil, err
		}
	}
	if _, err := compileStages(vctx, stages); err != nil {
		return nil, err
	}
	materializeSchemas(plan)
	return &matView{
		name: name, sql: sql, eng: e,
		columns: plan.Schema().Names,
		suffix:  suffix, agg: agg, scan: scan, stages: stages,
		groups: make(map[string]*aggGroup), emitAggs: ev.aggs,
	}, nil
}

// DropView removes a view, reporting whether it existed.
func (e *Engine) DropView(name string) bool {
	e.views.mu.Lock()
	defer e.views.mu.Unlock()
	_, ok := e.views.views[name]
	delete(e.views.views, name)
	return ok
}

// ViewNames lists the registered views in name order.
func (e *Engine) ViewNames() []string {
	e.views.mu.Lock()
	defer e.views.mu.Unlock()
	names := make([]string, 0, len(e.views.views))
	for n := range e.views.views {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ViewInfos describes every registered view in name order.
func (e *Engine) ViewInfos() []ViewInfo {
	e.views.mu.Lock()
	vs := make([]*matView, 0, len(e.views.views))
	for _, v := range e.views.views {
		vs = append(vs, v)
	}
	e.views.mu.Unlock()
	sort.Slice(vs, func(i, j int) bool { return vs[i].name < vs[j].name })
	infos := make([]ViewInfo, len(vs))
	for i, v := range vs {
		v.mu.Lock()
		infos[i] = ViewInfo{
			Name: v.name, SQL: v.sql, Table: v.scan.Table.Name,
			Columns: append([]string(nil), v.columns...),
			Groups:  len(v.order), PartsDone: v.partsDone,
			Refreshes: v.refreshes, DeltaParts: v.deltaParts,
		}
		v.mu.Unlock()
	}
	return infos
}

// QueryView refreshes the named view incrementally and returns its rows.
// Metrics report the refresh cost: partitions scanned counts only the delta.
func (e *Engine) QueryView(qctx context.Context, name string) (*Result, error) {
	e.views.mu.Lock()
	v := e.views.views[name]
	e.views.mu.Unlock()
	if v == nil {
		return nil, fmt.Errorf("engine: unknown view %q", name)
	}
	return v.query(qctx)
}

func (v *matView) query(qctx context.Context) (*Result, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	ctx := &execContext{
		metrics:     &Metrics{},
		batchSize:   v.eng.batchSize,
		parallelism: 1, mergeParts: 1,
		acct: newMemAccountant(0),
		qctx: qctx,
	}
	if ctx.batchSize <= 0 {
		ctx.batchSize = 1024
	}
	if err := v.refreshLocked(ctx); err != nil {
		return nil, err
	}
	rows, err := v.emitLocked(ctx)
	if err != nil {
		return nil, err
	}
	m := *ctx.metrics
	m.RowsReturned = int64(len(rows))
	return &Result{Columns: append([]string(nil), v.columns...), Rows: rows, Metrics: m}, nil
}

// refreshLocked absorbs the partitions sealed since the last refresh into
// the retained state. The snapshot seals buffered rows first, so a refresh
// observes everything appended before it, exactly like a query.
func (v *matView) refreshLocked(ctx *execContext) error {
	snap := v.scan.Table.Snapshot()
	delta := snap.Parts[v.partsDone:]
	if len(delta) == 0 {
		v.version = snap.Version
		return nil
	}
	eval, err := compileAggEval(ctx, v.agg)
	if err != nil {
		return err
	}
	var filter vecFn
	if v.scan.Filter != nil {
		if filter, err = compileVec(ctx, v.scan.Schema(), v.scan.Filter); err != nil {
			return err
		}
	}
	cs, err := compileStages(ctx, v.stages)
	if err != nil {
		return err
	}
	colIdx := make([]int, len(v.scan.Columns))
	for i, c := range v.scan.Columns {
		idx := v.scan.Table.ColumnIndex(c)
		if idx < 0 {
			return fmt.Errorf("engine: table %q has no column %q", v.scan.Table.Name, c)
		}
		colIdx[i] = idx
	}

	// Fold the delta into a fresh table: the delta partitions are scanned in
	// ascending partition order, so the fresh table's insertion order is the
	// delta's first-seen order.
	dt := newAggTable(eval.aggs, 1)
	for _, part := range delta {
		if err := ctx.cancelled(); err != nil {
			return err
		}
		if partitionPruned(v.scan, part) {
			ctx.addScanCounts(nil, 0, 1, 0)
			continue
		}
		batches, bytes, err := scanPartition(ctx, part, colIdx, filter, ctx.batchSize)
		ctx.addScanCounts(nil, 1, 0, bytes)
		if err != nil {
			return err
		}
		it := batchIter(&staticBatches{batches: batches})
		for si := range cs {
			it = cs[si].iter(it, ctx.batchSize)
		}
		for {
			if err := ctx.cancelled(); err != nil {
				it.Close()
				return err
			}
			b, err := it.NextBatch()
			if err != nil {
				it.Close()
				return err
			}
			if b == nil {
				break
			}
			if err := eval.absorb(dt, b); err != nil {
				it.Close()
				return err
			}
		}
		it.Close()
	}

	// Merge the delta state in: every delta row comes after every previously
	// absorbed row (partition order = input row order), so folding delta
	// partials into the retained accumulators reproduces the sequential fold.
	// New groups are stamped with the pre-refresh watermark as the major key —
	// strictly larger than every earlier stamp — so appending them in delta
	// first-seen order keeps v.order sorted by stamp.
	base := int64(v.partsDone)
	for _, g := range dt.order {
		dst, ok := v.groups[g.key]
		if !ok {
			g.stamp = base<<32 | int64(g.seq)
			v.groups[g.key] = g
			v.order = append(v.order, g)
			continue
		}
		for a := range dst.accs {
			if err := mergeAccumulators(dst.accs[a], g.accs[a]); err != nil {
				return err
			}
		}
	}
	v.emitAggs = eval.aggs
	v.partsDone = len(snap.Parts)
	v.version = snap.Version
	v.refreshes++
	v.deltaParts += int64(len(delta))
	return nil
}

// emitLocked finalizes the retained groups and replays the suffix.
func (v *matView) emitLocked(ctx *execContext) ([][]variant.Value, error) {
	groups := v.order
	// Global aggregation over an empty input yields one row, applied at emit
	// so the synthetic group never pollutes the retained state.
	if len(v.agg.GroupBy) == 0 && len(groups) == 0 {
		t := newAggTable(v.emitAggs, 1)
		t.insert(nil, nil)
		groups = t.order
	}
	rows := emitGroupRows(groups, v.emitAggs)
	if len(v.suffix) == 0 {
		return rows, nil
	}
	// Rebuild the suffix over the materialized aggregate rows with shallow
	// clones: the shared expression trees are stateless (checked at
	// registration) and schema memos recompute per clone.
	node := Node(&viewRowsNode{schema: v.agg.Schema(), rows: rows})
	for i := len(v.suffix) - 1; i >= 0; i-- {
		switch s := v.suffix[i].(type) {
		case *ProjectNode:
			node = &ProjectNode{Input: node, Exprs: s.Exprs, Names: s.Names}
		case *FilterNode:
			node = &FilterNode{Input: node, Cond: s.Cond}
		case *SortNode:
			node = &SortNode{Input: node, Keys: s.Keys}
		case *LimitNode:
			node = &LimitNode{Input: node, N: s.N}
		}
	}
	it, err := prepare(node, ctx)
	if err != nil {
		return nil, err
	}
	out, err := drainRows(it)
	it.Close()
	return out, err
}

var _ Node = (*viewRowsNode)(nil)
